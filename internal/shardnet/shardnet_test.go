package shardnet

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
	"mcorr/internal/timeseries"
)

// denseRow is one row of the monitoring window: its time and its values in
// history.IDs() order, which is the coordinator's and the reference
// manager's IDs() order.
type denseRow struct {
	t    time.Time
	vals []float64
}

// fixtures builds a small group trace, a training slice, and a bounded
// monitoring window shared by the bit-identity tests.
func fixtures(t *testing.T, machines int, hours int) (*timeseries.Dataset, []denseRow) {
	t.Helper()
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "N", Machines: machines, Days: 2 + hours/24, Seed: 43,
		Faults: []simulator.Fault{{
			ID: "f1", Machine: simulator.MachineName("N", 1), Kind: simulator.FaultLevelShift,
			Start: timeseries.MonitoringStart.AddDate(0, 0, 1).Add(1 * time.Hour),
			End:   timeseries.MonitoringStart.AddDate(0, 0, 1).Add(3 * time.Hour),
		}},
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	trainEnd := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, trainEnd)
	var rows []denseRow
	err = ds.EachRow(history.IDs(), trainEnd, trainEnd.Add(time.Duration(hours)*time.Hour), func(tm time.Time, vals []float64) {
		rows = append(rows, denseRow{tm, slices.Clone(vals)})
	})
	if err != nil {
		t.Fatalf("EachRow: %v", err)
	}
	return history, rows
}

// tinyModel keeps test models small: grid size drives the transition
// matrix (and therefore every checkpoint and state-transfer blob)
// quadratically, so tests pin it down the same way mcdetect does.
func tinyModel(adaptive bool) core.Config {
	return core.Config{Adaptive: adaptive, Grid: core.GridConfig{MaxIntervals: 8}}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: networked %v (%x) != reference %v (%x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func compareReports(t *testing.T, step int, got, want manager.StepReport) {
	t.Helper()
	sameBits(t, fmt.Sprintf("step %d system", step), got.System, want.System)
	if got.ScoredPairs != want.ScoredPairs {
		t.Fatalf("step %d scored pairs = %d, want %d", step, got.ScoredPairs, want.ScoredPairs)
	}
	if got.GrownPairs != want.GrownPairs {
		t.Fatalf("step %d grown pairs = %d, want %d", step, got.GrownPairs, want.GrownPairs)
	}
	for id, q := range want.Measurements {
		sameBits(t, fmt.Sprintf("step %d %s", step, id), got.Measurements[id], q)
	}
}

// fabric is an in-test worker fleet: real processes in production, real
// TCP listeners with in-process goroutines here.
type fabric struct {
	t       *testing.T
	dirs    []string
	addrs   []string
	workers []*Worker
}

func startFabric(t *testing.T, n int) *fabric {
	t.Helper()
	f := &fabric{t: t, dirs: make([]string, n), addrs: make([]string, n), workers: make([]*Worker, n)}
	for k := 0; k < n; k++ {
		f.dirs[k] = t.TempDir()
		f.start(k, "127.0.0.1:0")
	}
	t.Cleanup(f.close)
	return f
}

// close stops every worker still running.
func (f *fabric) close() {
	for k, w := range f.workers {
		if w != nil {
			w.Close()
			f.workers[k] = nil
		}
	}
}

// start launches (or relaunches) worker k on addr, reusing its data dir.
func (f *fabric) start(k int, addr string) {
	f.t.Helper()
	w, err := ListenWorker(addr, WorkerConfig{DataDir: f.dirs[k]})
	if err != nil {
		f.t.Fatalf("ListenWorker %d: %v", k, err)
	}
	go w.Serve()
	f.workers[k] = w
	f.addrs[k] = w.Addr().String()
}

// kill abruptly stops worker k, keeping its checkpoint directory.
func (f *fabric) kill(k int) {
	f.t.Helper()
	f.workers[k].Close()
	f.workers[k] = nil
}

// refRun holds the in-process reference trajectory and its end-of-run
// accumulator values.
type refRun struct {
	reports []manager.StepReport
	steps   int
	mean    float64
}

func referenceRun(t *testing.T, history *timeseries.Dataset, cfg manager.Config, rows []denseRow) refRun {
	t.Helper()
	ref, err := manager.New(history, cfg)
	if err != nil {
		t.Fatalf("manager.New: %v", err)
	}
	defer ref.Close()
	reports := make([]manager.StepReport, len(rows))
	for i, row := range rows {
		reports[i] = ref.StepValues(row.t, row.vals)
	}
	return refRun{reports: reports, steps: ref.Steps(), mean: ref.SystemMean()}
}

// TestShardNetBitIdenticalToManager is the tentpole property for the
// networked fabric: for any worker count, fanning rows over TCP to
// worker processes and merging their returned outcomes centrally yields
// the exact Q^a/Q bit patterns of a single in-process Manager —
// including in adaptive mode, where grid growth happens remotely.
func TestShardNetBitIdenticalToManager(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := map[bool]string{false: "offline", true: "adaptive"}[adaptive]
		t.Run(name, func(t *testing.T) {
			mcfg := manager.Config{Model: tinyModel(adaptive)}
			history, rows := fixtures(t, 3, 6)
			want := referenceRun(t, history, mcfg, rows)
			for _, n := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
					leaked := testkit.GoroutineLeakCheck(t)
					sessions := obsWorkerSessions.Value()
					f := startFabric(t, n)
					c, err := New(history, Config{Workers: f.addrs, Manager: mcfg})
					if err != nil {
						t.Fatalf("shardnet.New: %v", err)
					}
					defer c.Close()
					for i, row := range rows {
						compareReports(t, i, c.StepValues(row.t, row.vals), want.reports[i])
					}
					sameBits(t, "system mean", c.SystemMean(), want.mean)
					if c.Steps() != want.steps {
						t.Fatalf("Steps = %d, want %d", c.Steps(), want.steps)
					}
					// One wire: an undisturbed run is one connection per
					// worker, dialled by the coordinator, and nothing else.
					if got := obsWorkerSessions.Value() - sessions; got != uint64(n) {
						t.Fatalf("workers accepted %d connections, want %d", got, n)
					}
					c.Close()
					f.close()
					leaked()
				})
			}
		})
	}
}

// TestShardNetWorkerRestartMidStream kills one worker between steps and
// restarts it from its on-disk checkpoint on the same address: the
// coordinator replays the missed rows from its ring and the merged
// trajectory stays bit-identical to an uninterrupted in-process run.
func TestShardNetWorkerRestartMidStream(t *testing.T) {
	mcfg := manager.Config{Model: tinyModel(true)}
	history, rows := fixtures(t, 3, 5)
	want := referenceRun(t, history, mcfg, rows).reports

	leaked := testkit.GoroutineLeakCheck(t)
	f := startFabric(t, 2)
	c, err := New(history, Config{Workers: f.addrs, Manager: mcfg, CheckpointEvery: 7})
	if err != nil {
		t.Fatalf("shardnet.New: %v", err)
	}
	defer c.Close()

	crashAt := len(rows) / 2
	for i, row := range rows {
		if i == crashAt {
			addr := f.addrs[1]
			f.kill(1)
			f.start(1, addr)
		}
		compareReports(t, i, c.StepValues(row.t, row.vals), want[i])
	}
	c.Close()
	f.close()
	leaked()
}

// TestShardNetLongReplay restarts a worker whose only checkpoint is epoch
// zero after enough rows that its answers to the replay exceed 16 MiB —
// more than any default socket buffer. Rows and answers share one
// connection, so a coordinator that wrote the ring ahead of reading the
// answers would stop with both buffers full; the next Step must complete
// and the trajectory stay bit-identical to manager.New.
func TestShardNetLongReplay(t *testing.T) {
	mcfg := manager.Config{Model: core.Config{Grid: core.GridConfig{MaxIntervals: 4}}}
	history, rows := fixtures(t, 8, 92)
	want := referenceRun(t, history, mcfg, rows).reports

	f := startFabric(t, 1)
	c, err := New(history, Config{Workers: f.addrs, Manager: mcfg, CheckpointEvery: len(rows) + 1})
	if err != nil {
		t.Fatalf("shardnet.New: %v", err)
	}
	defer c.Close()

	crashAt := len(rows) - 3
	perRow := outcomeHeader + outcomeSize*len(c.Pairs())
	if replayed := crashAt * perRow; replayed <= 16<<20 {
		t.Fatalf("fixture too small: %d rows × %d bytes = %d replayed bytes, want > 16 MiB", crashAt, perRow, replayed)
	}
	replays := obsReplayedRows.Value()
	for i, row := range rows {
		if i == crashAt {
			addr := f.addrs[0]
			f.kill(0)
			f.start(0, addr)
		}
		compareReports(t, i, c.StepValues(row.t, row.vals), want[i])
	}
	if got := obsReplayedRows.Value() - replays; got != uint64(crashAt+1) {
		t.Fatalf("replayed %d rows, want %d", got, crashAt+1)
	}
}

// TestNewRejectsWideFleet pins the row frame's u16 measurement index: a
// fleet it cannot address is refused up front, not aliased on the workers.
func TestNewRejectsWideFleet(t *testing.T) {
	ds := timeseries.NewDataset()
	for i := 0; i <= maxMeasurements; i++ {
		s, err := timeseries.NewSeries(mid(fmt.Sprintf("m%d", i), "cpu"), timeseries.MonitoringStart, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(s)
	}
	_, err := New(ds, Config{Workers: []string{"127.0.0.1:1"}})
	if err == nil || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("New over %d measurements: %v, want a refusal naming the 65536 limit", maxMeasurements+1, err)
	}
}

// retiredAssigns are the assign types of earlier builds: the back-channel
// protocol's, the dense model record's and the rebalance plan version's.
var retiredAssigns = []collector.MsgType{16, 28, 30}

// TestHandshakeRefusesOtherBuild covers both mixed-build pairings with
// every retired protocol: each must fail the handshake at once and say
// why, before any model state moves — never leave a worker decoding
// records of another format or a Step waiting for outcomes.
func TestHandshakeRefusesOtherBuild(t *testing.T) {
	history, _ := fixtures(t, 3, 1)
	mcfg := manager.Config{Model: tinyModel(false)}

	t.Run("old worker", func(t *testing.T) {
		// An old worker reads the assign, finds a type it does not expect
		// and drops the connection: it sees nothing else, the state
		// transfer waits for the ready it never sends.
		for _, old := range retiredAssigns {
			if MsgShardAssign == old {
				t.Fatalf("the assign still has type %d, which a retired build accepts", old)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				collector.ReadFrame(conn)
				conn.Close()
			}
		}()
		start := time.Now()
		c, err := New(history, Config{Workers: []string{ln.Addr().String()}, Manager: mcfg})
		if err == nil {
			c.Close()
			t.Fatal("New succeeded against a worker that refused the assign")
		}
		if !strings.Contains(err.Error(), "same build") {
			t.Fatalf("New: %v, want the upgrade-together hint", err)
		}
		if d := time.Since(start); d > handshakeTimeout/2 {
			t.Fatalf("New took %v to give up on a refused handshake", d)
		}
	})

	t.Run("old coordinator", func(t *testing.T) {
		f := startFabric(t, 1)
		for _, old := range retiredAssigns {
			conn, err := net.Dial("tcp", f.addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := writeGob(conn, old, assignMsg{RunID: "old", N: 1}); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = collector.ReadFrame(conn)
			conn.Close()
			if err != io.EOF {
				t.Fatalf("worker answered retired assign %d with %v, want the connection closed", old, err)
			}
		}
		if _, err := os.Stat(f.workers[0].checkpointPath(0)); !os.IsNotExist(err) {
			t.Fatalf("a refused assign left a worker checkpoint behind (stat: %v)", err)
		}
	})
}

// TestDispatchRefusesRetiredCommands: types 25–27, the acknowledged
// adaptive and reset-chains commands of earlier builds, are retired, so a
// worker ends the session of a coordinator that sends one as it would for
// any stray frame, and a bye still acks the last scored row before the
// session ends cleanly.
func TestDispatchRefusesRetiredCommands(t *testing.T) {
	var w Worker
	for _, typ := range []collector.MsgType{25, 26, 27} {
		err := w.dispatch(nil, &shardState{scoredSeq: 3, ackedSeq: 2}, collector.Frame{Type: typ})
		if err == nil || !strings.Contains(err.Error(), "unexpected control frame type") {
			t.Fatalf("retired type %d: %v, want an unexpected-frame error", typ, err)
		}
	}
	st := &shardState{scoredSeq: 3, ackedSeq: 2}
	if err := w.dispatch(nil, st, collector.Frame{Type: collector.MsgBye}); err != io.EOF {
		t.Fatalf("bye: %v, want io.EOF", err)
	}
	if st.ackedSeq != 3 {
		t.Fatalf("bye left ackedSeq at %d, want the scored row 3", st.ackedSeq)
	}
}

// TestNewRefusesWorkerListedTwice: one worker serves one shard. A worker
// listed twice used to retire one shard for the other on every row, with
// a bit-identical trajectory that hid the thrash; now New fails fast,
// naming both shard indices, whether the two entries are one address or
// two spellings of it.
func TestNewRefusesWorkerListedTwice(t *testing.T) {
	history, _ := fixtures(t, 3, 1)
	mcfg := manager.Config{Model: tinyModel(false)}
	f := startFabric(t, 1)
	_, port, err := net.SplitHostPort(f.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, second string
		want         []string
	}{
		{"same address", f.addrs[0], []string{"workers 0 and 1"}},
		// An IPv4-mapped literal reaches the same listener under another
		// spelling, so only the worker can tell.
		{"another spelling", net.JoinHostPort("::ffff:127.0.0.1", port), []string{"shard 0", "shard 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			c, err := New(history, Config{Workers: []string{f.addrs[0], tc.second}, Manager: mcfg})
			if err == nil {
				c.Close()
				t.Fatal("New succeeded with one worker serving two shards")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("New: %v, want an error naming %q", err, want)
				}
			}
			if d := time.Since(start); d > handshakeTimeout/2 {
				t.Fatalf("New took %v to refuse a worker listed twice", d)
			}
		})
	}
}

// TestHandshakeRefusesOtherPairSet: ownership is fixed at New, so a worker
// that recovers a checkpoint of this run and shard holding another pair
// set is refused at the handshake, with the shard named — not repaired.
func TestHandshakeRefusesOtherPairSet(t *testing.T) {
	history, _ := fixtures(t, 3, 1)
	mcfg := manager.Config{Model: tinyModel(false)}
	f := startFabric(t, 2)
	c, err := New(history, Config{Workers: f.addrs, Manager: mcfg})
	if err != nil {
		t.Fatalf("shardnet.New: %v", err)
	}
	defer c.Close()

	// Worker 1 restarts from a checkpoint of this run and shard that lacks
	// one of the shard's pairs.
	own := c.conns[1].pairs
	sub, err := manager.NewSubset(history, mcfg, func(p manager.Pair) bool { return p != own[0] && slices.Contains(own, p) })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	addr := f.addrs[1]
	f.kill(1)
	st := &shardState{runID: c.runID, k: 1, n: 2, mgr: sub}
	if err := (&Worker{cfg: WorkerConfig{DataDir: f.dirs[1]}}).checkpoint(st); err != nil {
		t.Fatal(err)
	}
	f.start(1, addr)

	c.mu.Lock()
	c.conns[1].fail(nil)
	err = c.connectLocked(1)
	c.mu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "pair set") {
		t.Fatalf("handshake with a worker holding another pair set: %v, want a refusal naming shard 1", err)
	}
	w := f.workers[1]
	w.smu.Lock()
	held := len(w.st.mgr.Pairs())
	w.smu.Unlock()
	if held != len(own)-1 {
		t.Fatalf("worker holds %d pairs after the refusal, want the checkpoint's %d", held, len(own)-1)
	}
}

// TestFleetPartitionSurface checks Pairs against the workers' pair lists:
// they are a true partition of the canonical global order, and worker k
// holds exactly the pairs Assign gives shard k.
func TestFleetPartitionSurface(t *testing.T) {
	history, _ := fixtures(t, 3, 1)
	mcfg := manager.Config{Model: tinyModel(false), Workers: 1}
	const workers = 3
	t.Run("networked", func(t *testing.T) {
		c, err := New(history, Config{Workers: startFabric(t, workers).addrs, Manager: mcfg})
		if err != nil {
			t.Fatalf("shardnet.New: %v", err)
		}
		defer c.Close()
		all := c.Pairs()
		if len(all) == 0 || !slices.IsSortedFunc(all, func(p, q manager.Pair) int {
			if p.Less(q) {
				return -1
			}
			return 1
		}) {
			t.Fatalf("Pairs() is empty or not in strict canonical order: %v", all)
		}
		owners := make(map[manager.Pair]int)
		for k, wc := range c.conns {
			for _, p := range wc.pairs {
				owners[p]++
				if got := Assign(p.String(), workers); got != k {
					t.Errorf("worker %d holds pair %s, which Assign gives shard %d", k, p, got)
				}
			}
		}
		if len(owners) != len(all) {
			t.Errorf("workers hold %d distinct pairs, the fleet has %d", len(owners), len(all))
		}
		for _, p := range all {
			if owners[p] != 1 {
				t.Errorf("pair %s owned by %d workers", p, owners[p])
			}
		}
		if len(c.conns) != workers {
			t.Errorf("%d worker connections, want %d", len(c.conns), workers)
		}
	})
}

// TestFabricRoundScattersInCanonicalOrder states the property the
// networked fleet's bit-identity rests on: whatever the split of the pair
// graph over the workers, one round leaves every worker's outcome for a
// pair at that pair's index of the global canonical order, which is the
// order the Aggregator folds — so each pair's Q^{a,b} in the merged report
// is bit for bit the one a single in-process Manager reports for it.
func TestFabricRoundScattersInCanonicalOrder(t *testing.T) {
	mcfg := manager.Config{Model: tinyModel(true)}
	history, rows := fixtures(t, 3, 3)
	ref, err := manager.New(history, mcfg)
	if err != nil {
		t.Fatalf("manager.New: %v", err)
	}
	defer ref.Close()
	const workers = 3
	c, err := New(history, Config{Workers: startFabric(t, workers).addrs, Manager: mcfg})
	if err != nil {
		t.Fatalf("shardnet.New: %v", err)
	}
	defer c.Close()

	// The split must interleave: some neighbours of the canonical order
	// live on different workers, or the scatter is the identity map.
	owner := make(map[manager.Pair]int)
	for k, wc := range c.conns {
		for _, p := range wc.pairs {
			owner[p] = k
		}
	}
	interleaved := false
	for i := 1; i < len(c.pairs); i++ {
		interleaved = interleaved || owner[c.pairs[i]] != owner[c.pairs[i-1]]
	}
	if !interleaved {
		t.Fatal("every worker owns one run of the canonical order; the fixture tests nothing")
	}
	for k, wc := range c.conns {
		for i, p := range wc.pairs {
			if c.pairs[wc.idx[i]] != p {
				t.Fatalf("worker %d's pair %d (%s) scatters to index %d, which holds %s", k, i, p, wc.idx[i], c.pairs[wc.idx[i]])
			}
		}
	}
	for i, row := range rows {
		got, want := c.StepValues(row.t, row.vals), ref.StepValues(row.t, row.vals)
		states := ref.PairStates()
		if len(c.outcomes) != len(states) {
			t.Fatalf("step %d: %d pair outcomes, want %d", i, len(c.outcomes), len(states))
		}
		for k, st := range states {
			o := c.outcomes[k]
			if c.pairs[k] != st.Pair || o.Scored != st.Scored {
				t.Fatalf("step %d: outcome %d is %s scored=%v, want %s scored=%v", i, k, c.pairs[k], o.Scored, st.Pair, st.Scored)
			}
			sameBits(t, fmt.Sprintf("step %d pair %s", i, st.Pair), o.Fitness, st.Fitness)
		}
		compareReports(t, i, got, want)
	}
}

// TestShardNetFleetSurface sanity-checks the fleet methods the serving
// and diagnosis layers rely on.
func TestShardNetFleetSurface(t *testing.T) {
	mcfg := manager.Config{Model: tinyModel(false), TrackPairMeans: true}
	history, rows := fixtures(t, 3, 2)

	f := startFabric(t, 2)
	c, err := New(history, Config{Workers: f.addrs, Manager: mcfg})
	if err != nil {
		t.Fatalf("shardnet.New: %v", err)
	}
	defer c.Close()

	if len(c.IDs()) == 0 {
		t.Fatal("empty IDs")
	}
	for _, row := range rows {
		c.StepValues(row.t, row.vals)
	}
	if c.Steps() == 0 || c.Steps() > len(rows) {
		t.Fatalf("Steps = %d, want 1..%d", c.Steps(), len(rows))
	}
	if len(c.MeasurementMeans()) != len(c.IDs()) {
		t.Fatal("MeasurementMeans size mismatch")
	}
	if len(c.PairMeans()) != len(c.Pairs()) {
		t.Fatal("PairMeans size mismatch")
	}
	if loc := c.Localize(); len(loc.Machines) == 0 {
		t.Fatal("empty localization")
	}
	lats := c.Latencies()
	if len(lats) != 2 || lats[0] <= 0 || lats[1] <= 0 {
		t.Fatalf("latencies not populated: %v", lats)
	}
	c.ResetAccumulators()
	if c.Steps() != 0 {
		t.Fatal("ResetAccumulators did not clear steps")
	}
}

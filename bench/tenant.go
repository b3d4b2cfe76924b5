package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mcorr"
	"mcorr/internal/core"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

const tenantName = "bench"

// managerConfig is the fleet every workload trains: adaptive models on
// grids of at most 12 intervals (the default 20 costs ~12 MB per pair,
// so l=64 does not fit a 16 GB box) and mcdetect's alarm thresholds.
func managerConfig(sink mcorr.AlarmSink) mcorr.ManagerConfig {
	return mcorr.ManagerConfig{
		Model:                core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 12}},
		MeasurementThreshold: 0.5,
		SystemThreshold:      0.8,
		Sink:                 sink,
	}
}

// countingSink is the alarm sink at the end of the path.
type countingSink struct {
	mu sync.Mutex
	n  int
}

func (s *countingSink) Publish(mcorr.Alarm) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *countingSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// tenantRun drives the real path: two ReliableAgents → loopback TCP →
// collector.Server → Tenant.AppendBatch → WAL → tsdb → row assembly →
// fleet Step → alarm sink → diagnosis → OnReport, one row in flight.
type tenantRun struct {
	w     workload
	in    *input
	o     options
	res   *result
	dir   string
	sink  *countingSink
	reg   *mcorr.Registry
	t     *mcorr.Tenant
	srv   *mcorr.CollectorServer
	agent [2]*mcorr.ReliableAgent
	f     frames
	next  int // next row to send

	// Written by OnReport (under the tenant's lock, before the frame's
	// ack is sent), read by the sender after the ack.
	mu       sync.Mutex
	reports  int
	reportAt time.Time
	lastTime time.Time
	grown    int
	systems  []float64

	badRows int
}

func (r *tenantRun) tenantConfig() mcorr.TenantConfig {
	opts := []mcorr.MonitorOption{mcorr.WithDiagnosis(mcorr.DiagnosisConfig{})}
	if r.w.budget > 0 {
		opts = append(opts, mcorr.WithDiscovery(mcorr.DiscoveryConfig{Budget: r.o.scale.budget(r.w, len(r.in.ids))}))
	}
	return mcorr.TenantConfig{
		Name:    tenantName,
		History: r.in.history,
		Manager: managerConfig(r.sink),
		Durable: true,
		// Checkpoints happen only where the workload forces them.
		Durability: mcorr.DurabilityConfig{CheckpointEvery: 1 << 30},
		Options:    opts,
	}
}

func (r *tenantRun) onReport(_ string, rep mcorr.StepReport) {
	now := time.Now()
	r.mu.Lock()
	r.reports++
	r.reportAt, r.lastTime = now, rep.Time
	r.grown += rep.GrownPairs
	r.systems = append(r.systems, rep.System)
	r.mu.Unlock()
}

// sendRow ships row k as one frame per agent and checks that the second
// frame's ack came after exactly one report, for that row.
func (r *tenantRun) sendRow(k int) (time.Duration, error) {
	r.in.fill(r.f, k)
	if err := r.agent[0].Send(r.f[0]); err != nil {
		return 0, err
	}
	handed := time.Now()
	if err := r.agent[1].Send(r.f[1]); err != nil {
		return 0, err
	}
	r.mu.Lock()
	ok := r.reports == k+1 && r.lastTime.Equal(r.in.time(k))
	lat := r.reportAt.Sub(handed)
	r.mu.Unlock()
	if !ok {
		r.badRows++
	}
	return lat, nil
}

// close stops what the run started. The tenant is not closed: its final
// checkpoint costs seconds and measures nothing new; the data dir goes
// with the process.
func (r *tenantRun) close() {
	for _, a := range r.agent {
		if a != nil {
			a.Close()
		}
	}
	if r.srv != nil {
		r.srv.Close()
	}
	os.RemoveAll(r.dir)
}

func runTenant(w workload, in *input, o options, res *result) (err error) {
	r := &tenantRun{w: w, in: in, o: o, res: res, sink: &countingSink{}, f: in.newFrames()}
	if r.dir, err = os.MkdirTemp(o.out, "data-"+w.name+"-"); err != nil {
		return err
	}
	defer r.close()

	// Set-up: train, open the durable tenant, connect, warm up.
	setupStart := time.Now()
	before := snapshot()
	r.reg = mcorr.NewTenantRegistry(r.dir)
	cfg := r.tenantConfig()
	cfg.OnReport = r.onReport
	if r.t, err = r.reg.CreateTenant(cfg); err != nil {
		return err
	}
	createS := time.Since(setupStart).Seconds()
	pairs := len(r.t.Fleet().Pairs())
	res.Stamp.L, res.Stamp.Pairs = len(in.ids), pairs
	if w.budget == 0 {
		l := len(in.ids)
		res.check(pairs == l*(l-1)/2, "full graph has %d pairs, want %d", pairs, l*(l-1)/2)
	}
	var offClock time.Duration
	if o.trace {
		// The same work as the checkpoint inside CreateTenant, on the
		// same freshly trained fleet, timed on its own.
		t := time.Now()
		if err = r.t.Checkpoint(); err != nil {
			return err
		}
		offClock = time.Since(t)
		res.Metrics["mcorr.initial_checkpoint_s"] = offClock.Seconds()
		res.Metrics["mcorr.train_s"] = max(0, createS-offClock.Seconds())
	}
	if r.srv, err = mcorr.NewTenantCollectorServer(r.reg); err != nil {
		return err
	}
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for i := range r.agent {
		r.agent[i] = mcorr.NewReliableAgent(addr.String(), fmt.Sprintf("bench-agent-%d", i), mcorr.ReliableConfig{Tenant: tenantName})
	}
	warmCycles, err := warmUp(&r.next, r.sendRow, func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		g := r.grown
		r.grown = 0
		return g
	})
	if err != nil {
		return err
	}
	runtime.GC()
	res.Metrics["setup_s"] = in.genS + (time.Since(setupStart) - offClock).Seconds()
	res.Stamp.WarmRows = r.next
	res.Metrics["mcorr.warm_rows"] = float64(r.next)
	res.Metrics["core.model_mb_per_pair"] = float64(snapshot().heap-before.heap) / 1e6 / float64(pairs)

	// Measured phase: a fixed number of whole cycles.
	in.faultCycle = warmCycles
	r.mu.Lock()
	r.systems = r.systems[:0]
	r.mu.Unlock()
	var (
		ph     phase
		q      *querier
		ckptS  []float64
		cycles = cyclesFor(w, o)
		walB   = obsValue("mcorr_wal_bytes_total")
		fsyncs = walFsyncs()
	)
	if w.mixed {
		if q, err = newQuerier(r.reg, in); err != nil {
			return err
		}
		defer q.close()
	}
	// Queries run during the cycles only: a checkpoint holds the tenant's
	// lock, and an open-loop schedule would pile a thousand queries on it.
	// Forced checkpoint i of n follows cycle i·cycles/n, so the last one
	// closes the phase and the recovery below re-scores exactly the one
	// cycle that follows it.
	busy, err := ph.measure(cycles, &r.next, r.sendRow, q.start, func(c int) error {
		q.stop()
		for i := 1; w.mixed && i <= o.scale.checkpoints; i++ {
			if c == i*cycles/o.scale.checkpoints {
				return r.checkpoint(&ckptS)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	measured := ph.rows()
	samples := float64(measured * len(in.ids))
	ph.report(res, len(in.ids), busy)
	res.Metrics["collector.frames"] = float64(2 * measured)
	res.Metrics["wal.bytes_per_sample"] = (obsValue("mcorr_wal_bytes_total") - walB) / samples
	res.Metrics["wal.fsyncs"] = float64(walFsyncs() - fsyncs)
	res.Metrics["tsdb.resident_samples"] = float64(r.next * len(in.ids))
	r.mu.Lock()
	res.Checksum = checksum(r.systems[:o.scale.minCycles*cycleRows])
	r.mu.Unlock()

	if w.mixed {
		res.Metrics["checkpoint_s"] = median(ckptS)
		res.Metrics["correlate_p50_ms"] = median(q.latMs)
		res.Metrics["run.query_late_ms_p99"] = quantile(q.lateMs, 0.99)
		res.ops(len(q.latMs), q.bad, "correlate queries answered 200")
		res.check(len(q.latMs) >= o.scale.minQueries, "%d correlate queries, want at least %d", len(q.latMs), o.scale.minQueries)
		if err = r.recoverCopy(); err != nil {
			return err
		}
	}

	// Output checks.
	res.ops(r.next, r.badRows, "rows that produced exactly one report, in time order")
	st := r.srv.Stats()
	res.Metrics["collector.shed_frames"] = float64(st.Shed)
	res.Metrics["collector.throttled_frames"] = float64(st.Throttled)
	res.check(st.Shed == 0 && st.Throttled == 0 && st.Errors == 0,
		"collector shed %d, throttled %d, errors %d; want none", st.Shed, st.Throttled, st.Errors)
	res.check(st.Samples == r.next*len(in.ids), "collector stored %d samples, sent %d", st.Samples, r.next*len(in.ids))
	checkIncidents(res, in, r.t.Diagnosis().Incidents(), w.enforceFault)
	res.Metrics["alarm.raised"] = float64(r.sink.count())
	if df, ok := r.t.Fleet().(mcorr.DiscoveryFleet); ok {
		admitted, _, _ := df.BudgetInfo()
		res.Metrics["discover.admitted_pairs"] = float64(admitted)
		churn := 0
		for _, ev := range df.DrainDiscoveryEvents() {
			churn += len(ev.Admitted) + len(ev.Evicted)
		}
		res.Metrics["discover.churn_pairs"] = float64(churn)
	}
	res.Metrics["peak_rss_mb"] = peakRSSMB()

	if o.trace {
		return r.traced(&ph, q)
	}
	return nil
}

// warmUp replays whole clean cycles until one reports no adaptive grid
// growth: growth reallocates matrices and is the largest systematic
// drift in this pipeline. At least two cycles, at most ten.
func warmUp(next *int, do rowFunc, takeGrown func() int) (cycles int, err error) {
	var discard phase
	for cycles = 1; cycles <= 10; cycles++ {
		if err = discard.runCycle(next, do); err != nil {
			return 0, err
		}
		if grown := takeGrown(); grown == 0 && cycles >= 2 {
			return cycles, nil
		}
	}
	return 0, fmt.Errorf("adaptive grid growth has not settled after %d cycles", cycles-1)
}

// checkpoint forces one, with ingest stopped, and records how long it
// took and how large it is.
func (r *tenantRun) checkpoint(took *[]float64) error {
	t := time.Now()
	if err := r.t.Checkpoint(); err != nil {
		return err
	}
	*took = append(*took, time.Since(t).Seconds())
	fi, err := os.Stat(filepath.Join(mcorr.TenantDir(r.dir, tenantName), "checkpoint"))
	if err != nil {
		return err
	}
	r.res.Metrics["mcorr.checkpoint_mb"] = float64(fi.Size()) / 1e6
	return nil
}

// recoverCopy ingests one more cycle, copies the data dir and has a second
// registry recover the copy; the re-scored tail must repeat the original
// trajectory bit for bit.
func (r *tenantRun) recoverCopy() error {
	res := r.res
	r.mu.Lock()
	mark := len(r.systems)
	r.mu.Unlock()
	var tail phase
	if err := tail.runCycle(&r.next, r.sendRow); err != nil {
		return err
	}
	res.Stamp.TailRows = tail.rows()
	r.mu.Lock()
	want := append([]float64(nil), r.systems[mark:]...)
	r.mu.Unlock()

	standby, err := os.MkdirTemp(r.o.out, "standby-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(standby)
	if err := copyDir(r.dir, standby); err != nil {
		return err
	}
	t := time.Now()
	cfg := r.tenantConfig()
	cfg.History = nil
	cfg.Manager.Sink = nil
	recovered, err := mcorr.NewTenantRegistry(standby).CreateTenant(cfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	res.Metrics["recover_s"] = time.Since(t).Seconds()
	got := recovered.Recovered()
	res.Metrics["mcorr.recover_replayed_rows"] = float64(len(got))
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = math.Float64bits(got[i].System) == math.Float64bits(want[i])
	}
	res.check(same, "recovery re-scored %d rows, want the %d-row tail bit for bit", len(got), len(want))
	return nil
}

// checkIncidents looks for an incident that opened inside the injected
// fault's window and blames the faulted machine.
func checkIncidents(res *result, in *input, incidents []mcorr.IncidentDigest, enforce bool) {
	from, to := in.faultWindow()
	res.Metrics["diagnose.incidents_opened"] = float64(len(incidents))
	detected, suspect := false, ""
	for _, d := range incidents {
		if !d.ImpactTime.Before(from) && d.ImpactTime.Before(to) {
			detected, suspect = true, d.Suspect
			break
		}
	}
	if detected {
		res.Metrics["alarm.fault_detected"] = 1
	}
	if enforce {
		res.check(detected && suspect == in.faultMachine,
			"fault on %s at %s: incident in window %v, suspect %q", in.faultMachine, from.Format(time.RFC3339), detected, suspect)
	}
}

// walFsyncs is how many times the WAL has synced so far.
func walFsyncs() uint64 {
	return obs.Default().Histogram("mcorr_wal_fsync_seconds", "", nil).Count()
}

func obsValue(name string) float64 {
	v, _ := obs.Default().Value(name)
	return v
}

func copyDir(from, to string) error {
	return filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// querier POSTs /api/v1/correlate to the tenant API over loopback HTTP
// on a fixed schedule (open loop): a query is timed from when it was due,
// so a stall is charged to every query it delays.
type querier struct {
	in     *input
	ln     net.Listener
	server *http.Server
	client *http.Client
	url    string
	n      int // queries issued so far: rotates the anchor

	cancel context.CancelFunc
	done   chan struct{}

	latMs  []float64
	lateMs []float64
	bad    int

	// Set for the traced pass, which issues its queries one after the
	// other between its cycles. The handler cannot be split from outside
	// the program: the POST is one span, and the window read it does is
	// timed beside it on the traced store, same window and candidates.
	tr    *tracer
	store *tsdb.Store
}

const (
	queryEvery      = 20 * time.Millisecond
	queryCandidates = 32
	queryWindow     = timeseries.SamplesPerDay
)

func newQuerier(reg *mcorr.Registry, in *input) (*querier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	q := &querier{in: in, ln: ln, url: "http://" + ln.Addr().String() + "/api/v1/correlate",
		server: &http.Server{Handler: mcorr.NewTenantAPI(reg)}, client: &http.Client{}}
	go q.server.Serve(ln)
	return q, nil
}

func (q *querier) close() {
	q.server.Close()
	q.client.CloseIdleConnections()
}

// body builds query n: the anchor rotates through the measurements, the
// candidates are the 32 that follow it.
func (q *querier) body(n int) []byte {
	ids := q.in.ids
	cands := make([]string, 0, queryCandidates)
	for i := 1; i <= queryCandidates && i < len(ids); i++ {
		cands = append(cands, ids[(n+i)%len(ids)].String())
	}
	b, _ := json.Marshal(map[string]any{
		"tenant": tenantName, "anchor": ids[n%len(ids)].String(), "candidates": cands,
		"window": map[string]int{"last": queryWindow},
	})
	return b
}

// query issues query q.n, due at the given time, and records it. With a
// tracer set it leaves an api.correlate span and, beside it, a
// tsdb.query_window span: the same window read on the traced store.
func (q *querier) query(due time.Time) {
	sent, id := time.Now(), -1
	if q.tr != nil {
		id = q.tr.start("api.correlate", q.n, -1)
	}
	resp, err := q.client.Post(q.url, "application/json", bytes.NewReader(q.body(q.n)))
	ok := err == nil && resp.StatusCode == http.StatusOK
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if !ok {
		q.bad++
	}
	q.latMs = append(q.latMs, time.Since(due).Seconds()*1e3)
	q.lateMs = append(q.lateMs, sent.Sub(due).Seconds()*1e3)
	if q.tr != nil {
		q.tr.end(id)
		id = q.tr.start("tsdb.query_window", q.n, -1)
		readWindow(q.store, q.in, q.n)
		q.tr.end(id)
	}
	q.n++
}

// start begins a schedule that runs until stop. Both do nothing on a nil
// querier: only mixed-rw has one.
func (q *querier) start() {
	if q == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	q.cancel, q.done = cancel, make(chan struct{})
	go func() {
		defer close(q.done)
		for due := time.Now(); ; due = due.Add(queryEvery) {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(due)):
			}
			q.query(due)
		}
	}()
}

// stop ends the schedule and waits for the query in flight.
func (q *querier) stop() {
	if q == nil {
		return
	}
	q.cancel()
	<-q.done
}

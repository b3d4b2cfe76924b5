package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mcorr"
	"mcorr/internal/diagnose"
	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// shardWorkers is the fabric size: one worker per core of the 2-core box
// the numbers are taken on, inside this process (four worker processes on
// two cores measured the scheduler, not the fabric).
const shardWorkers = 2

// shardRun scores pre-built rows through Coordinator.Step over loopback
// shard workers, the way mcdetect -shard-workers does.
type shardRun struct {
	in    *input
	coord *mcorr.ShardNetCoordinator
	diag  *diagnose.Engine
	rows  [2][]map[timeseries.MeasurementID]float64 // clean, faulty
	next  int

	systems []float64 // every report's System since row 0
	grown   int
	badRows int
}

func (r *shardRun) row(k int) manager.Row {
	set := 0
	if k/cycleRows == r.in.faultCycle {
		set = 1
	}
	return manager.Row{Time: r.in.time(k), Values: r.rows[set][k%cycleRows]}
}

// stepRow's latency is the Step round trip: the alarms of the row have
// reached the sink when Step returns.
func (r *shardRun) stepRow(k int) (time.Duration, error) {
	row := r.row(k)
	t := time.Now()
	rep := r.coord.Step(row)
	lat := time.Since(t)
	r.diag.Observe(rep)
	if !rep.Time.Equal(row.Time) {
		r.badRows++
	}
	r.systems = append(r.systems, rep.System)
	r.grown += rep.GrownPairs
	return lat, nil
}

func runShardnet(w workload, in *input, o options, res *result) error {
	dir, err := os.MkdirTemp(o.out, "data-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &shardRun{in: in}
	for k := 0; k < cycleRows; k++ {
		r.rows[0] = append(r.rows[0], in.rowValues(in.clean[k]))
		r.rows[1] = append(r.rows[1], in.rowValues(in.faulty[k]))
	}

	// Set-up: workers, training, state transfer, warm-up.
	setupStart := time.Now()
	before := snapshot()
	addrs := make([]string, shardWorkers)
	for k := range addrs {
		wk, err := mcorr.ListenShardNetWorker("127.0.0.1:0", mcorr.ShardNetWorkerConfig{DataDir: filepath.Join(dir, fmt.Sprintf("worker-%d", k))})
		if err != nil {
			return err
		}
		defer wk.Close()
		go wk.Serve()
		addrs[k] = wk.Addr().String()
	}
	sink := &countingSink{}
	if r.coord, err = mcorr.NewShardNetFleet(in.history, mcorr.ShardNetConfig{
		Workers: addrs,
		Manager: managerConfig(sink),
		// No worker checkpoint falls inside a run.
		CheckpointEvery: 1 << 30,
	}); err != nil {
		return err
	}
	defer r.coord.Close()
	fleetS := time.Since(setupStart).Seconds()
	r.diag = diagnose.NewEngine(diagnose.Config{})
	r.diag.SetLocalizeFn(r.coord.Localize)
	l, pairs := len(in.ids), len(r.coord.Pairs())
	res.Stamp.L, res.Stamp.Pairs = l, pairs
	res.check(pairs == l*(l-1)/2, "full graph has %d pairs, want %d", pairs, l*(l-1)/2)
	warmCycles, err := warmUp(&r.next, r.stepRow, func() int {
		g := r.grown
		r.grown = 0
		return g
	})
	if err != nil {
		return err
	}
	runtime.GC()
	res.Metrics["setup_s"] = in.genS + time.Since(setupStart).Seconds()
	res.Stamp.WarmRows = r.next
	res.Metrics["mcorr.warm_rows"] = float64(r.next)
	res.Metrics["core.model_mb_per_pair"] = float64(snapshot().heap-before.heap) / 1e6 / float64(pairs)

	// Measured phase.
	in.faultCycle = warmCycles
	var ph phase
	busy, err := ph.measure(cyclesFor(w, o), &r.next, r.stepRow, nil, nil)
	if err != nil {
		return err
	}
	ph.report(res, l, busy)
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.Metrics["shardnet.step_us_per_row"] = mean(ph.latMs) * 1e3
	res.Metrics["shardnet.allocs_per_row"] = float64(busy.mallocs) / float64(ph.rows())
	res.Metrics["shardnet.alloc_bytes_per_row"] = float64(busy.bytes) / float64(ph.rows())
	lat := r.coord.Latencies()
	res.Metrics["shardnet.worker_latency_skew"] = quantile(lat, 1) / quantile(lat, 0)
	res.Metrics["alarm.raised"] = float64(sink.count())
	res.Checksum = checksum(r.systems[res.Stamp.WarmRows:][:o.scale.minCycles*cycleRows])

	// Output checks. The reference is the in-process manager over the
	// same rows: it must agree bit for bit through the warm-up and the
	// first measured cycle (the one with the fault in it).
	res.ops(r.next, r.badRows, "rows whose report carries the row's time")
	trainStart := time.Now()
	local, err := manager.New(in.history, managerConfig(nil))
	if err != nil {
		return err
	}
	defer local.Close()
	trainS := time.Since(trainStart).Seconds()
	res.Metrics["mcorr.train_s"] = trainS
	res.Metrics["shardnet.state_transfer_s"] = max(0, fleetS-trainS)
	same, upTo := true, res.Stamp.WarmRows+cycleRows
	for k := 0; k < upTo && same; k++ {
		same = math.Float64bits(local.Step(r.row(k)).System) == math.Float64bits(r.systems[k])
	}
	res.check(same, "networked and in-process System differ within the first %d rows", upTo)
	checkIncidents(res, in, r.diag.Incidents(), true)

	if o.trace {
		return r.traced(res, o, local)
	}
	return nil
}

// traced times the networked Step against the in-process Step over the
// same rows, a cycle of one then the same cycle of the other.
func (r *shardRun) traced(res *result, o options, local *manager.Manager) error {
	tr := newTracer()
	var netNs, localNs, wallNs float64
	start := r.next
	for c := 0; c < o.scale.tracedCycles; c++ {
		t := time.Now()
		for k := r.next; k < r.next+cycleRows; k++ {
			row := r.row(k)
			id := tr.start("fleet.step", k, -1)
			rep := r.coord.Step(row)
			netNs += tr.end(id)
			id = tr.start("diagnose.observe", k, -1)
			r.diag.Observe(rep)
			tr.end(id)
		}
		wallNs += float64(time.Since(t))
		for k := r.next; k < r.next+cycleRows; k++ {
			row := r.row(k)
			t := time.Now()
			local.Step(row)
			localNs += float64(time.Since(t))
		}
		r.next += cycleRows
	}
	rows := float64(r.next - start)
	res.Stamp.TracedRows = r.next - start
	res.Metrics["shardnet.step_over_local_ratio"] = netNs / localNs
	res.Metrics["manager.step_us_per_row"] = localNs / rows / 1e3
	res.Metrics["diagnose.observe_us_per_row"] = tr.total("diagnose.observe") / rows / 1e3
	res.Metrics["run.trace_coverage_share"] = (netNs + tr.total("diagnose.observe")) / wallNs
	res.Metrics["run.trace_overhead_share"] = wallNs/rows/1e9*res.Metrics["samples_per_s"]/float64(len(r.in.ids)) - 1
	return tr.write(o.out, res.Workload)
}

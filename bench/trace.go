package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcorr"
	"mcorr/internal/collector"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
	"mcorr/internal/wal"
)

// span is one timed call into a layer. Spans of one row share the row
// number as trace id; a query's spans share the query number.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass is over.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, trace, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration in ns.
func (t *tracer) end(id int) float64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return float64(d)
}

// total sums the durations of the spans called name, in ns.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
		}
	}
	return sum
}

// self sums, over the spans called name, the duration not covered by
// their children, in ns.
func (t *tracer) self(name string) float64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start - children[s.ID])
		}
	}
	return sum
}

func (t *tracer) count(name string) float64 {
	n := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func (t *tracer) write(dir, workload string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// tracedSink is the tenant's ingest path put together again from the
// layers' public constructors, with a span around every call: tsdb
// append and WAL append, the row assembly of Monitor.Ingest/nextRow,
// fleet Step, diagnosis Observe. It borrows the tenant's warmed fleet
// and diagnosis engine, so it scores the rows the tenant would.
type tracedSink struct {
	tr    *tracer
	store *tsdb.Store
	log   *wal.Log
	fleet mcorr.Fleet
	diag  *mcorr.DiagnosisEngine
	ids   []timeseries.MeasurementID
	step  time.Duration

	// The sender sets these before each Send; one frame is in flight.
	mu     sync.Mutex
	trace  int
	parent int
	cursor time.Time

	reports  int
	reportAt time.Time
	// Phase times of the fleet's own "manager.step" spans (the program's
	// obs tracer), summed in ns.
	managerNs, scoreNs, aggregateNs float64
	rescored                        float64
}

// SinkFor and TenantLimit make the sink its own collector.TenantRouter.
func (s *tracedSink) SinkFor(string) (string, collector.Sink, error) { return tenantName, s, nil }
func (s *tracedSink) TenantLimit(string) (float64, int)              { return 0, 0 }

func (s *tracedSink) AppendBatch(batch []tsdb.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, trace := s.tr, s.trace
	sink := tr.start("collector.sink", trace, s.parent)
	defer tr.end(sink)

	// Store.AppendBatch with a WAL attached applies the batch, then logs
	// it; the log call is made here so that it gets its own span.
	app := tr.start("tsdb.append", trace, sink)
	err := s.store.AppendBatch(batch)
	if err == nil {
		w := tr.start("wal.append", trace, app)
		var payload []byte
		if payload, err = tsdb.EncodeWALBatch(batch); err == nil {
			_, err = s.log.Append(payload)
		}
		tr.end(w)
	}
	tr.end(app)
	if err != nil {
		return err
	}

	asm := tr.start("mcorr.row_assembly", trace, sink)
	scan := tr.start("tsdb.lasttime_scan", trace, asm)
	var ready time.Time
	complete := true
	for i, id := range s.ids {
		last, ok := s.store.LastTime(id)
		if !ok {
			complete = false
			break
		}
		if i == 0 || last.Before(ready) {
			ready = last
		}
	}
	tr.end(scan)
	if !complete || ready.Before(s.cursor) {
		tr.end(asm)
		return nil
	}
	q := tr.start("tsdb.queryall", trace, asm)
	ds := s.store.QueryAll(s.cursor, s.cursor.Add(s.step))
	tr.end(q)
	row := manager.Row{Time: s.cursor, Values: make(map[timeseries.MeasurementID]float64, len(s.ids))}
	for _, id := range s.ids {
		if sr := ds.Get(id); sr != nil && sr.Len() > 0 {
			row.Values[id] = sr.Values[0]
		}
	}
	s.cursor = s.cursor.Add(s.step)
	tr.end(asm)

	fs := tr.start("fleet.step", trace, sink)
	report := s.fleet.Step(row)
	tr.end(fs)
	for _, rec := range obs.DefaultTracer().Recent(4) {
		if rec.Name != "manager.step" {
			continue
		}
		s.managerNs += float64(rec.Duration)
		for _, p := range rec.Phases {
			if p.Name == "score" {
				s.scoreNs += float64(p.Duration)
			} else {
				s.aggregateNs += float64(p.Duration)
			}
		}
		break
	}
	s.rescored += obsValue("mcorr_manager_dirty_pairs")

	d := tr.start("diagnose.observe", trace, sink)
	s.diag.Observe(report)
	tr.end(d)
	s.reports++
	s.reportAt = time.Now()
	return nil
}

// traced runs the traced pass and the layer probes that follow the
// untraced measured phase ph.
func (r *tenantRun) traced(ph *phase, q *querier) error {
	res, in, o := r.res, r.in, r.o
	tr := newTracer()
	store, err := tsdb.NewStore(timeseries.SampleStep, 0)
	if err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(r.dir, "traced-wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	sink := &tracedSink{tr: tr, store: store, log: log, fleet: r.t.Fleet(), diag: r.t.Diagnosis(),
		ids: in.ids, step: timeseries.SampleStep, cursor: in.time(r.next)}
	srv, err := collector.NewTenantServer(sink, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	var agents [2]*mcorr.ReliableAgent
	for i := range agents {
		agents[i] = mcorr.NewReliableAgent(addr.String(), fmt.Sprintf("traced-agent-%d", i), mcorr.ReliableConfig{Tenant: tenantName})
		defer agents[i].Close()
	}
	bad, first := 0, r.next
	send := func(k int) (time.Duration, error) {
		in.fill(r.f, k)
		var handed time.Time
		for a := range agents {
			id := tr.start("agent.send", k, -1)
			sink.mu.Lock()
			sink.trace, sink.parent = k, id
			sink.mu.Unlock()
			handed = time.Now()
			err := agents[a].Send(r.f[a])
			tr.end(id)
			if err != nil {
				return 0, err
			}
		}
		sink.mu.Lock()
		defer sink.mu.Unlock()
		if sink.reports != k-first+1 {
			bad++
		}
		return sink.reportAt.Sub(handed), nil
	}
	// The traced sink steps the tenant's fleet from outside the tenant's
	// lock, so nothing may use the tenant meanwhile: the pass issues its
	// queries between the cycles, one after the other, not beside them.
	if q != nil {
		q.tr, q.store = tr, store
	}
	var tp phase
	queries, badQueries := 0, 0
	for c := 0; c < o.scale.tracedCycles; c++ {
		if err := tp.runCycle(&r.next, send); err != nil {
			return err
		}
		for i := 0; q != nil && i < o.scale.minQueries/o.scale.tracedCycles; i++ {
			was := q.bad
			q.query(time.Now())
			queries, badQueries = queries+1, badQueries+q.bad-was
		}
	}
	rows := float64(tp.rows())
	res.Stamp.TracedRows = tp.rows()
	res.ops(tp.rows(), bad, "traced rows that produced exactly one report")
	res.ops(queries, badQueries, "traced correlate queries answered 200")
	if err := tr.write(o.out, res.Workload); err != nil {
		return err
	}

	frames := tr.count("agent.send")
	us := func(ns float64) float64 { return ns / 1e3 }
	m := res.Metrics
	m["collector.send_rtt_us_per_frame"] = us(tr.self("agent.send") / frames)
	m["mcorr.sink_us_per_row"] = us(tr.total("collector.sink") / rows)
	m["tsdb.append_us_per_row"] = us(tr.self("tsdb.append") / rows)
	m["wal.append_us_per_frame"] = us(tr.total("wal.append") / frames)
	m["mcorr.row_assembly_us_per_row"] = us(tr.total("mcorr.row_assembly") / rows)
	m["tsdb.lasttime_scan_us_per_row"] = us(tr.total("tsdb.lasttime_scan") / rows)
	m["tsdb.queryall_us_per_row"] = us(tr.total("tsdb.queryall") / rows)
	m["diagnose.observe_us_per_row"] = us(tr.total("diagnose.observe") / rows)
	m["manager.step_us_per_row"] = us(sink.managerNs / rows)
	m["manager.score_us_per_row"] = us(sink.scoreNs / rows)
	m["manager.aggregate_us_per_row"] = us(sink.aggregateNs / rows)
	m["manager.rescored_pairs_per_row"] = sink.rescored / rows
	m["manager.carried_pairs_per_row"] = float64(len(r.t.Fleet().Pairs())) - sink.rescored/rows
	m["core.step_ns_per_rescored_pair"] = sink.scoreNs / sink.rescored
	if r.w.budget > 0 {
		m["discover.step_us_per_row"] = us((tr.total("fleet.step") - sink.managerNs) / rows)
	}
	m["run.trace_coverage_share"] = tr.total("agent.send") / (tp.seconds() * 1e9)
	m["run.trace_overhead_share"] = median(tp.cycleS)/median(ph.cycleS) - 1

	return r.probes(store)
}

// readWindow reads what one correlate query reads: the anchor's and the
// candidates' last queryWindow rows.
func readWindow(store *tsdb.Store, in *input, n int) {
	end, ok := store.LastTime(in.ids[0])
	if !ok {
		return
	}
	end = end.Add(timeseries.SampleStep)
	start := end.Add(-time.Duration(queryWindow) * timeseries.SampleStep)
	for i := 0; i <= queryCandidates && i < len(in.ids); i++ {
		store.Query(in.ids[(n+i)%len(in.ids)], start, end)
	}
}

type discardSink struct{}

func (discardSink) AppendBatch([]tsdb.Sample) error { return nil }

// probes times single layers on the workload's own frames, with nothing
// else running.
func (r *tenantRun) probes(store *tsdb.Store) error {
	m, in, n := r.res.Metrics, r.in, r.o.scale.probeIters
	perCall := func(n int, f func(i int) error) (float64, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		return time.Since(t).Seconds() * 1e6 / float64(n), nil
	}
	frame := r.f[0]
	payload, err := collector.EncodeSamples(frame)
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	if err := collector.WriteFrame(&wire, collector.Frame{Type: collector.MsgSamples, Payload: payload}); err != nil {
		return err
	}
	m["collector.wire_bytes_per_sample"] = float64(wire.Len()) / float64(len(frame))
	if m["collector.encode_us_per_frame"], err = perCall(n, func(int) error {
		_, err := collector.EncodeSamples(frame)
		return err
	}); err != nil {
		return err
	}
	if m["collector.decode_us_per_frame"], err = perCall(n, func(int) error {
		_, err := collector.DecodeSamples(payload)
		return err
	}); err != nil {
		return err
	}

	// The same frames into a sink that discards them: wire, decode,
	// admission and ack alone.
	null, err := collector.NewServer(discardSink{}, nil)
	if err != nil {
		return err
	}
	defer null.Close()
	addr, err := null.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	agent := mcorr.NewReliableAgent(addr.String(), "probe-agent", mcorr.ReliableConfig{})
	defer agent.Close()
	if m["collector.null_sink_rtt_us_per_frame"], err = perCall(n, func(i int) error { return agent.Send(r.f[i%2]) }); err != nil {
		return err
	}
	small := frame[:len(simulator.AllMetrics)]
	if m["collector.small_frame_rtt_us"], err = perCall(n, func(int) error { return agent.Send(small) }); err != nil {
		return err
	}

	if m["tsdb.query_window_us"], err = perCall(n/10+1, func(i int) error {
		readWindow(store, in, i)
		return nil
	}); err != nil {
		return err
	}

	// The correlate handler without HTTP transport.
	api := mcorr.NewTenantAPI(r.reg)
	probe := &querier{in: in}
	var handler []float64
	bad := 0
	for i := 0; i < n/10+1; i++ {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/correlate", bytes.NewReader(probe.body(i)))
		rec := httptest.NewRecorder()
		t := time.Now()
		api.ServeHTTP(rec, req)
		handler = append(handler, time.Since(t).Seconds()*1e6)
		if rec.Code != http.StatusOK {
			bad++
		}
	}
	m["mcorr.correlate_handler_us_p50"] = median(handler)
	r.res.ops(len(handler), bad, "correlate handler calls answered 200")

	// One cycle straight into the fleet's Step: what a row allocates in
	// the scoring layers alone.
	fleet := r.t.Fleet()
	rows := make([]manager.Row, cycleRows)
	for i := range rows {
		rows[i] = in.row(r.next + i)
	}
	s0 := snapshot()
	for _, row := range rows {
		fleet.Step(row)
	}
	var alloc runStats
	alloc.add(s0, snapshot())
	r.next += cycleRows
	m["manager.allocs_per_row"] = float64(alloc.mallocs) / float64(cycleRows)
	m["manager.alloc_bytes_per_row"] = float64(alloc.bytes) / float64(cycleRows)
	return nil
}

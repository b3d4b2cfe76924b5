package diagnose

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

var (
	t0    = timeseries.TestStart
	step  = timeseries.SampleStep
	mCPU1 = timeseries.MeasurementID{Machine: "m1", Metric: "cpu"}
	mNET1 = timeseries.MeasurementID{Machine: "m1", Metric: "net"}
	mCPU2 = timeseries.MeasurementID{Machine: "m2", Metric: "cpu"}
	mNET2 = timeseries.MeasurementID{Machine: "m2", Metric: "net"}
	all   = []timeseries.MeasurementID{mCPU1, mNET1, mCPU2, mNET2}
)

// rep builds one step report at row i. Every measurement scores q except
// the overrides.
func rep(i int, sys, q float64, override map[timeseries.MeasurementID]float64) manager.StepReport {
	meas := make([]float64, len(all))
	for k, id := range all {
		meas[k] = q
		if v, ok := override[id]; ok {
			meas[k] = v
		}
	}
	return manager.StepReport{Time: t0.Add(time.Duration(i) * step), System: sys, IDs: all, Measurements: meas}
}

// faultStream drives an engine through a canonical incident: healthy rows,
// a fault window where cpu@m1 collapses, then recovery. Returns the row
// index after the stream.
func faultStream(e *Engine, healthy, faulty, recovery int) int {
	i := 0
	for ; i < healthy; i++ {
		e.Observe(rep(i, 0.9, 0.9, nil))
	}
	for j := 0; j < faulty; j++ {
		e.Observe(rep(i, 0.55, 0.65, map[timeseries.MeasurementID]float64{mCPU1: 0.1}))
		i++
	}
	for j := 0; j < recovery; j++ {
		e.Observe(rep(i, 0.9, 0.9, nil))
		i++
	}
	return i
}

func TestIncidentOpensRanksAndCloses(t *testing.T) {
	e := NewEngine(Config{})
	cfg := e.Config()

	faultStream(e, 10, cfg.OpenAfter, 0)
	if e.OpenCount() != 1 {
		t.Fatalf("OpenCount after %d low rows = %d, want 1", cfg.OpenAfter, e.OpenCount())
	}
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("Incidents = %d, want 1", len(incs))
	}
	d := incs[0]
	impact := t0.Add(10 * step)
	if !d.ImpactTime.Equal(impact) {
		t.Errorf("ImpactTime = %v, want first low row %v", d.ImpactTime, impact)
	}
	wantID := fmt.Sprintf("inc-1-%s", impact.UTC().Format("20060102T150405Z"))
	if d.ID != wantID {
		t.Errorf("ID = %q, want %q", d.ID, wantID)
	}
	if d.State != StateOpen {
		t.Errorf("State = %q, want open", d.State)
	}
	if len(d.Candidates) != 1 || d.Candidates[0].Measurement != mCPU1.String() {
		t.Fatalf("Candidates = %+v, want exactly cpu@m1", d.Candidates)
	}
	c := d.Candidates[0]
	if c.Ring != 0 {
		t.Errorf("Ring = %d, want 0 (broke on the impact row)", c.Ring)
	}
	if got, want := c.Drop, 0.8; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Drop = %v, want baseline 0.9 - lowest 0.1 = %v", got, want)
	}
	if d.Suspect != "m1" {
		t.Errorf("Suspect = %q, want m1", d.Suspect)
	}
	if d.Broken != 1 {
		t.Errorf("Broken = %d, want 1", d.Broken)
	}
	if len(d.Chain) != 1 || d.Chain[0].Measurement != mCPU1.String() || d.Chain[0].Q != 0.1 {
		t.Errorf("Chain = %+v", d.Chain)
	}
	if d.SystemLow != 0.55 {
		t.Errorf("SystemLow = %v, want 0.55", d.SystemLow)
	}
	// One broken measurement out of four, Q well below threshold*0.95:
	// warning, not critical (0.55 > 0.8*0.75 = 0.6 is false — 0.55 < 0.6,
	// so critical).
	if d.Severity != "critical" {
		t.Errorf("Severity = %q, want critical (SystemLow 0.55 < 0.6)", d.Severity)
	}

	// Recovery closes the incident after closeAfter healthy rows.
	e2 := NewEngine(Config{})
	faultStream(e2, 10, 6, closeAfter)
	if e2.OpenCount() != 0 {
		t.Fatalf("incident still open after %d healthy rows", closeAfter)
	}
	incs = e2.Incidents()
	if len(incs) != 1 || incs[0].State != StateClosed {
		t.Fatalf("Incidents after close = %+v", incs)
	}
	if incs[0].ClosedAt.IsZero() || incs[0].ClosedAt.Before(incs[0].OpenedAt) {
		t.Errorf("ClosedAt = %v not after OpenedAt %v", incs[0].ClosedAt, incs[0].OpenedAt)
	}
	if got, ok := e2.Incident(incs[0].ID); !ok || got.ID != incs[0].ID {
		t.Errorf("Incident(%q) lookup failed", incs[0].ID)
	}
	if _, ok := e2.Incident("inc-404-nope"); ok {
		t.Error("Incident on unknown id reported ok")
	}
}

func TestOpenAfterDebouncesBlips(t *testing.T) {
	e := NewEngine(Config{OpenAfter: 3})
	// Two low rows, then recovery: no incident.
	e.Observe(rep(0, 0.9, 0.9, nil))
	e.Observe(rep(1, 0.5, 0.6, nil))
	e.Observe(rep(2, 0.5, 0.6, nil))
	e.Observe(rep(3, 0.9, 0.9, nil))
	if e.OpenCount() != 0 {
		t.Fatal("blip below OpenAfter opened an incident")
	}
	// Three consecutive low rows open one.
	for i := 4; i < 7; i++ {
		e.Observe(rep(i, 0.5, 0.6, nil))
	}
	if e.OpenCount() != 1 {
		t.Fatal("sustained low run did not open an incident")
	}
}

func TestFanOutFromPairAlarms(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 8; i++ {
		e.Observe(rep(i, 0.9, 0.9, nil))
	}
	r := rep(8, 0.5, 0.65, map[timeseries.MeasurementID]float64{mCPU1: 0.1})
	e.Observe(r)
	// A pair alarm stamps both its endpoints.
	sink := e.WrapSink(nil)
	sink.Publish(alarm.Alarm{
		Time: r.Time, Scope: alarm.ScopePair, Severity: alarm.SeverityWarning,
		Measurement: mCPU1, Peer: mNET2, Score: 0.1, Threshold: 0.5,
	})
	e.Observe(rep(9, 0.5, 0.65, map[timeseries.MeasurementID]float64{mCPU1: 0.1}))

	incs := e.Incidents()
	if len(incs) != 1 || len(incs[0].Candidates) == 0 {
		t.Fatalf("Incidents = %+v", incs)
	}
	c := incs[0].Candidates[0]
	if c.Measurement != mCPU1.String() {
		t.Fatalf("top candidate = %q", c.Measurement)
	}
	if c.FanOut != 1 {
		t.Errorf("FanOut = %d, want 1 (one pair alarm)", c.FanOut)
	}
	if incs[0].PairAlarms != 1 {
		t.Errorf("PairAlarms = %d, want 1", incs[0].PairAlarms)
	}
}

func TestAlarmCountsArePerIncidentDeltas(t *testing.T) {
	e := NewEngine(Config{})
	sink := e.WrapSink(nil)
	// Alarms before the incident land in the baseline snapshot.
	for i := 0; i < 3; i++ {
		sink.Publish(alarm.Alarm{Time: t0, Scope: alarm.ScopeMeasurement, Severity: alarm.SeverityInfo, Measurement: mCPU2})
	}
	i := faultStream(e, 6, 1, 0)
	sink.Publish(alarm.Alarm{Time: t0.Add(time.Duration(i) * step), Scope: alarm.ScopeSystem, Severity: alarm.SeverityWarning})
	faultStreamAt(e, i, 3)
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("Incidents = %d", len(incs))
	}
	if incs[0].MeasurementAlarms != 0 {
		t.Errorf("MeasurementAlarms = %d, want 0 (all pre-incident)", incs[0].MeasurementAlarms)
	}
	if incs[0].SystemAlarms != 1 {
		t.Errorf("SystemAlarms = %d, want 1", incs[0].SystemAlarms)
	}
}

// faultStreamAt continues the canonical fault rows from row index i.
func faultStreamAt(e *Engine, i, faulty int) {
	for j := 0; j < faulty; j++ {
		e.Observe(rep(i+j, 0.55, 0.65, map[timeseries.MeasurementID]float64{mCPU1: 0.1}))
	}
}

// TestEngineKnowsScoredOrStampedMeasurements: binding to a report's ids
// makes no measurement known; a score or a pair-alarm stamp does, and only
// known measurements count in History, Measurements and breadth — also
// an alarm that names a measurement before any report, or outside them.
func TestEngineKnowsScoredOrStampedMeasurements(t *testing.T) {
	e := NewEngine(Config{})
	ghost := timeseries.MeasurementID{Machine: "m0", Metric: "ghost"}
	e.WrapSink(nil).Publish(alarm.Alarm{Time: t0, Scope: alarm.ScopePair, Measurement: ghost, Peer: mNET2})
	r := rep(0, 0.9, math.NaN(), map[timeseries.MeasurementID]float64{mCPU1: 0.9})
	e.Observe(r)
	e.Observe(rep(1, 0.9, math.NaN(), map[timeseries.MeasurementID]float64{mCPU1: 0.9, mNET1: 0.8}))
	want := []timeseries.MeasurementID{ghost, mCPU1, mNET1, mNET2}
	if got := e.Measurements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Measurements = %v, want %v", got, want)
	}
	if len(e.meas) != len(want) {
		t.Errorf("breadth counts %d measurements, want %d", len(e.meas), len(want))
	}
	if _, ok := e.History(mCPU2, 0); ok {
		t.Error("History of a measurement never scored nor stamped reported ok")
	}
	if pts, ok := e.History(mNET1, 0); !ok || len(pts) != 1 || pts[0].Q != 0.8 {
		t.Errorf("History(net@m1) = %v ok=%v, want one point at 0.8", pts, ok)
	}
	if pts, ok := e.History(mNET2, 0); !ok || len(pts) != 0 {
		t.Errorf("History(net@m2), stamped only = %v ok=%v, want known and empty", pts, ok)
	}
}

func TestHistoryRingsAndWindows(t *testing.T) {
	e := NewEngine(Config{})
	const rows = historyRows + 2
	for i := 0; i < rows; i++ {
		e.Observe(rep(i, 0.9, 0.9, nil))
	}
	sys := e.SystemHistory(0)
	if len(sys) != historyRows {
		t.Fatalf("SystemHistory retained %d, want ring capacity %d", len(sys), historyRows)
	}
	if !sys[0].T.Equal(t0.Add(2*step)) || !sys[historyRows-1].T.Equal(t0.Add((rows-1)*step)) {
		t.Errorf("SystemHistory window = [%v .. %v], want rows 2..%d", sys[0].T, sys[historyRows-1].T, rows-1)
	}
	for i := 1; i < len(sys); i++ {
		if !sys[i].T.After(sys[i-1].T) {
			t.Fatalf("SystemHistory not in time order at %d", i)
		}
	}
	pts, ok := e.History(mCPU1, 2)
	if !ok || len(pts) != 2 || !pts[1].T.Equal(t0.Add((rows-1)*step)) {
		t.Errorf("History(cpu@m1, 2) = %v ok=%v", pts, ok)
	}
	if _, ok := e.History(timeseries.MeasurementID{Machine: "nope", Metric: "x"}, 0); ok {
		t.Error("History on unknown measurement reported ok")
	}
	byName, ok := e.HistoryByName("cpu@m1", 0)
	if !ok || len(byName) != historyRows {
		t.Errorf("HistoryByName = %d points ok=%v", len(byName), ok)
	}
	if _, ok := e.HistoryByName("ghost@m9", 0); ok {
		t.Error("HistoryByName on unknown name reported ok")
	}
	ids := e.Measurements()
	if len(ids) != 4 {
		t.Fatalf("Measurements = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			t.Fatalf("Measurements not sorted: %v", ids)
		}
	}
}

func TestFamiliesGroupByMachineAndMetric(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 8; i++ {
		e.Observe(rep(i, 0.9, 0.9, nil))
	}
	// Both m1 measurements break: the machine family dominates.
	low := map[timeseries.MeasurementID]float64{mCPU1: 0.1, mNET1: 0.2}
	for j := 8; j < 10; j++ {
		e.Observe(rep(j, 0.5, 0.7, low))
	}
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("Incidents = %d", len(incs))
	}
	d := incs[0]
	if d.Broken != 2 {
		t.Fatalf("Broken = %d, want 2", d.Broken)
	}
	if len(d.Families) == 0 || d.Families[0].Kind != "machine" || d.Families[0].Key != "m1" || d.Families[0].Size != 2 {
		t.Errorf("top family = %+v, want machine m1 size 2", d.Families)
	}
	if len(d.Rings) != len(ringRadii)+1 {
		t.Fatalf("Rings = %d buckets, want %d", len(d.Rings), len(ringRadii)+1)
	}
	if d.Rings[0].Broken != 2 {
		t.Errorf("innermost ring Broken = %d, want 2", d.Rings[0].Broken)
	}
	if d.Rings[len(d.Rings)-1].Radius != -1 {
		t.Errorf("outer ring radius = %d, want -1", d.Rings[len(d.Rings)-1].Radius)
	}
}

func TestLocalizeRollupAttachesOutsideLock(t *testing.T) {
	e := NewEngine(Config{})
	e.SetLocalizeFn(func() manager.Localization {
		return manager.Localization{Machines: []manager.MachineScore{
			{Machine: "m1", Score: 0.2, Measurements: 2},
			{Machine: "m2", Score: 0.8, Measurements: 2},
		}}
	})
	faultStream(e, 6, 2, 0)
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("Incidents = %d", len(incs))
	}
	if len(incs[0].Machines) != 2 || incs[0].Machines[0].Machine != "m1" {
		t.Errorf("Machines rollup = %+v", incs[0].Machines)
	}
}

func TestClosedIncidentRetentionCap(t *testing.T) {
	e := NewEngine(Config{OpenAfter: 1})
	const opened = maxIncidents + 2
	i := 0
	for k := 0; k < opened; k++ {
		for j := 0; j < 3; j++ {
			e.Observe(rep(i, 0.9, 0.9, nil))
			i++
		}
		e.Observe(rep(i, 0.5, 0.6, nil))
		i++
		for j := 0; j < closeAfter; j++ {
			e.Observe(rep(i, 0.9, 0.9, nil))
			i++
		}
	}
	incs := e.Incidents()
	if len(incs) != maxIncidents {
		t.Fatalf("retained %d closed incidents, want cap %d", len(incs), maxIncidents)
	}
	// Newest first, and the oldest two evicted.
	newest, oldest := fmt.Sprintf("inc-%d-", opened), fmt.Sprintf("inc-%d-", opened-maxIncidents+1)
	if !strings.HasPrefix(incs[0].ID, newest) || !strings.HasPrefix(incs[maxIncidents-1].ID, oldest) {
		t.Errorf("retained = %q .. %q; want %s* .. %s*", incs[0].ID, incs[maxIncidents-1].ID, newest, oldest)
	}
	for _, d := range incs {
		if d.State != StateClosed {
			t.Fatalf("incident %s is %s, want closed", d.ID, d.State)
		}
	}
}

func TestPersistRoundTripMidIncident(t *testing.T) {
	cfg := Config{}
	full := NewEngine(cfg)
	faultStream(full, 10, 4, 3)

	// Same stream, interrupted mid-incident by a save/restore cycle.
	a := NewEngine(cfg)
	i := 0
	for ; i < 10; i++ {
		a.Observe(rep(i, 0.9, 0.9, nil))
	}
	faultStreamAt(a, i, 2)
	i += 2

	var buf bytes.Buffer
	if err := a.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	b := NewEngine(cfg)
	if err := b.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	faultStreamAt(b, i, 2)
	i += 2
	for j := 0; j < 3; j++ {
		b.Observe(rep(i, 0.9, 0.9, nil))
		i++
	}

	want, got := full.Incidents(), b.Incidents()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("incidents diverge across save/restore:\nwant %+v\ngot  %+v", want, got)
	}
	if !reflect.DeepEqual(full.SystemHistory(0), b.SystemHistory(0)) {
		t.Error("system history diverges across save/restore")
	}
	wp, _ := full.History(mCPU1, 0)
	gp, _ := b.History(mCPU1, 0)
	if !reflect.DeepEqual(wp, gp) {
		t.Error("measurement history diverges across save/restore")
	}
}

func TestMarshalStateRejectsBadBlob(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.UnmarshalState([]byte("not a gob blob")); err == nil {
		t.Fatal("UnmarshalState accepted garbage")
	}
	blob, err := e.MarshalState()
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	if err := NewEngine(Config{}).UnmarshalState(blob); err != nil {
		t.Fatalf("round trip of empty engine: %v", err)
	}
}

func TestDigestClonesAreIndependent(t *testing.T) {
	e := NewEngine(Config{})
	faultStream(e, 6, 2, 0)
	a := e.Incidents()[0]
	if len(a.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	a.Candidates[0].Measurement = "mutated"
	b := e.Incidents()[0]
	if b.Candidates[0].Measurement == "mutated" {
		t.Error("Incidents returned a shared slice; digests must be deep copies")
	}
}

// TestRowAllocationDoesNotGrowWithFleet pins what one row costs the
// aggregator and the engine together once every measurement has been
// seen: the report's own Q^a slice, 8·l bytes, and nothing per measurement.
// A name-keyed Q^a map cost 11 185 bytes a row at l=600.
func TestRowAllocationDoesNotGrowWithFleet(t *testing.T) {
	for _, l := range []int{48, 600} {
		ids := make([]timeseries.MeasurementID, l)
		for k := range ids {
			ids[k] = timeseries.MeasurementID{Machine: fmt.Sprintf("m%03d", k/8), Metric: fmt.Sprintf("x%d", k%8)}
		}
		// A chain of links, each measurement on one or two: every one scores.
		pairs := make([]manager.Pair, l-1)
		outcomes := make([]manager.Outcome, l-1)
		for k := range pairs {
			pairs[k] = manager.MakePair(ids[k], ids[k+1])
			outcomes[k] = manager.Outcome{Fitness: 0.9, Scored: true}
		}
		pairIdx := manager.BuildPairIndex(ids, pairs)
		agg := manager.NewAggregator(ids, manager.Config{})
		e := NewEngine(Config{})
		row := 0
		observe := func() {
			e.Observe(agg.Aggregate(t0.Add(time.Duration(row)*step), pairs, pairIdx, outcomes, nil))
			row++
		}
		observe() // binds the engine to the ids and gives each measurement its ring
		allocs := testing.AllocsPerRun(50, observe)
		const rows = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rows; i++ {
			observe()
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
		t.Logf("l=%d: %.1f allocations, %.0f bytes a row", l, allocs, perRow)
		if allocs > 1 || perRow > float64(8*l+128) {
			t.Errorf("l=%d: a row allocates %.1f times, %.0f bytes; want at most one slice of %d bytes", l, allocs, perRow, 8*l)
		}
		if len(e.meas) != l {
			t.Errorf("l=%d: the engine knows %d measurements", l, len(e.meas))
		}
	}
}

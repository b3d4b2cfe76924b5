package manager

import (
	"math"
	"testing"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/core"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// trainedManager builds a small group trace, trains on day 1, and returns
// the manager plus the full dataset and ground truth.
func trainedManager(t *testing.T, cfg Config, days int, faults ...simulator.Fault) (*Manager, *timeseries.Dataset, *simulator.GroundTruth) {
	t.Helper()
	ds, gt, err := simulator.Generate(simulator.GroupConfig{
		Name: "M", Machines: 3, Days: days, Seed: 17, Faults: faults,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	trainEnd := timeseries.MonitoringStart.AddDate(0, 0, 1)
	mgr, err := New(ds.Slice(timeseries.MonitoringStart, trainEnd), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return mgr, ds, gt
}

func TestNewValidation(t *testing.T) {
	if _, err := New(timeseries.NewDataset(), Config{}); err == nil {
		t.Error("empty dataset: want error")
	}
	one := timeseries.NewDataset()
	s, _ := timeseries.NewSeries(timeseries.MeasurementID{Machine: "m", Metric: "x"}, timeseries.MonitoringStart, time.Minute)
	one.Add(s)
	if _, err := New(one, Config{}); err == nil {
		t.Error("single measurement: want error")
	}
}

func TestNewTrainsAllPairs(t *testing.T) {
	mgr, _, _ := trainedManager(t, Config{}, 2)
	l := 3 * len(simulator.AllMetrics)
	want := l * (l - 1) / 2
	if got := len(mgr.Pairs()); got != want {
		t.Errorf("pairs = %d, want l(l-1)/2 = %d", got, want)
	}
	if got := len(mgr.IDs()); got != l {
		t.Errorf("IDs = %d, want %d", got, l)
	}
	// Model accessor works in either argument order.
	ids := mgr.IDs()
	if mgr.Model(ids[0], ids[1]) == nil || mgr.Model(ids[1], ids[0]) == nil {
		t.Error("Model accessor failed")
	}
	if mgr.Model(ids[0], timeseries.MeasurementID{Machine: "nope"}) != nil {
		t.Error("unknown pair should be nil")
	}
}

func TestRunProducesHighFitnessOnNormalData(t *testing.T) {
	mgr, ds, _ := trainedManager(t, Config{}, 2)
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	to := timeseries.MonitoringStart.AddDate(0, 0, 2)
	reports, err := mgr.Run(ds, from, to)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(reports) != timeseries.SamplesPerDay {
		t.Fatalf("reports = %d", len(reports))
	}
	if mgr.Steps() < timeseries.SamplesPerDay-2 {
		t.Errorf("Steps = %d", mgr.Steps())
	}
	mean := mgr.SystemMean()
	if mean < 0.8 || mean > 1 {
		t.Errorf("normal-day system fitness = %.3f, paper reports 0.8–0.98", mean)
	}
	// Per-measurement means exist for every measurement.
	means := mgr.MeasurementMeans()
	if len(means) != len(mgr.IDs()) {
		t.Errorf("measurement means = %d", len(means))
	}
	for id, q := range means {
		if math.IsNaN(q) || q < 0.5 {
			t.Errorf("measurement %s mean fitness = %.3f", id, q)
		}
	}
}

func TestStepMissingValuesSkipPairs(t *testing.T) {
	mgr, ds, _ := trainedManager(t, Config{}, 2)
	ids := mgr.IDs()
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	// Warm up one row, then drop one measurement from the next row.
	full := Row{Time: from, Values: map[timeseries.MeasurementID]float64{}}
	for _, id := range ids {
		s := ds.Get(id)
		if i, ok := s.IndexOf(from); ok {
			full.Values[id] = s.Values[i]
		}
	}
	mgr.Step(full)
	partial := Row{Time: from.Add(timeseries.SampleStep), Values: map[timeseries.MeasurementID]float64{}}
	for _, id := range ids[1:] {
		s := ds.Get(id)
		if i, ok := s.IndexOf(partial.Time); ok {
			partial.Values[id] = s.Values[i]
		}
	}
	rep := mgr.Step(partial)
	if _, present := rep.Measurement(ids[0]); present {
		t.Error("measurement without a value should have no score")
	}
	l := len(ids)
	if rep.ScoredPairs != (l-1)*(l-2)/2 {
		t.Errorf("scored pairs = %d, want %d", rep.ScoredPairs, (l-1)*(l-2)/2)
	}
}

func TestFaultDropsScoresAndLocalizes(t *testing.T) {
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	faulty := simulator.MachineName("M", 2)
	fault := simulator.Fault{
		ID: "f1", Machine: faulty, Metric: "",
		Kind:  simulator.FaultCorrelationBreak,
		Start: day1.Add(9 * time.Hour), End: day1.Add(12 * time.Hour),
	}
	sink := &alarm.MemorySink{}
	mgr, ds, _ := trainedManager(t, Config{
		Model:                core.Config{Adaptive: false},
		MeasurementThreshold: 0.6,
		Sink:                 sink,
	}, 2, fault)
	reports, err := mgr.Run(ds, day1, day1.AddDate(0, 0, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// System fitness during the fault window should dip below the
	// normal-window fitness (the paper's Figure 12 downward spike).
	var faultSum, normSum float64
	var faultN, normN int
	for _, r := range reports {
		if math.IsNaN(r.System) {
			continue
		}
		if !r.Time.Before(fault.Start) && r.Time.Before(fault.End) {
			faultSum += r.System
			faultN++
		} else {
			normSum += r.System
			normN++
		}
	}
	faultMean, normMean := faultSum/float64(faultN), normSum/float64(normN)
	if faultMean >= normMean-0.02 {
		t.Errorf("fault-window fitness %.3f should dip below normal %.3f", faultMean, normMean)
	}
	// Localization: the faulty machine ranks worst.
	loc := mgr.Localize()
	if loc.Suspect() != faulty {
		t.Errorf("suspect = %q, want %q (ranking: %+v)", loc.Suspect(), faulty, loc.Machines)
	}
	if len(loc.Machines) != 3 {
		t.Errorf("machines ranked = %d", len(loc.Machines))
	}
	// Alarms were raised for the faulty machine's measurements.
	found := false
	for _, a := range sink.Alarms() {
		if a.Scope == alarm.ScopeMeasurement && a.Measurement.Machine == faulty {
			found = true
			break
		}
	}
	if !found {
		t.Error("expected measurement alarms for the faulty machine")
	}
}

func TestSystemAlarmAndProbDelta(t *testing.T) {
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	fault := simulator.Fault{
		ID: "f2", Machine: simulator.MachineName("M", 1), Metric: "",
		Kind:  simulator.FaultFlapping,
		Start: day1.Add(6 * time.Hour), End: day1.Add(9 * time.Hour),
	}
	sink := &alarm.MemorySink{}
	mgr, ds, _ := trainedManager(t, Config{
		SystemThreshold: 0.9,
		ProbDelta:       1e-4,
		Sink:            sink,
	}, 2, fault)
	if _, err := mgr.Run(ds, day1, day1.AddDate(0, 0, 1)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var sys, pair int
	for _, a := range sink.Alarms() {
		switch a.Scope {
		case alarm.ScopeSystem:
			sys++
		case alarm.ScopePair:
			pair++
		}
	}
	if sys == 0 {
		t.Error("flapping a whole machine should depress Q below 0.9 at least once")
	}
	if pair == 0 {
		t.Error("improbable transitions should trip the δ pair alarms")
	}
}

func TestResetAccumulators(t *testing.T) {
	mgr, ds, _ := trainedManager(t, Config{}, 2)
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	if _, err := mgr.Run(ds, from, from.Add(10*timeseries.SampleStep)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mgr.Steps() == 0 {
		t.Fatal("no steps recorded")
	}
	mgr.ResetAccumulators()
	if mgr.Steps() != 0 || !math.IsNaN(mgr.SystemMean()) {
		t.Error("ResetAccumulators should clear running means")
	}
}

// TestRunIgnoresForeignMeasurements replays a dataset that also holds a
// series the fleet was not trained on — the datacenter example's case, a
// fleet over a subset of a group — and requires, bit for bit, the reports
// of a twin fleet's run over the dataset without it. The foreign series
// sorts first, so its grid is the one the replay steps on, and it starts
// late and stores a NaN.
func TestRunIgnoresForeignMeasurements(t *testing.T) {
	cfg := Config{Model: core.Config{Adaptive: true}}
	ref, ds, _ := trainedManager(t, cfg, 2)
	defer ref.Close()
	mgr, _, _ := trainedManager(t, cfg, 2)
	defer mgr.Close()
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	to := from.Add(60 * timeseries.SampleStep)

	wide := timeseries.NewDataset()
	for _, id := range ds.IDs() {
		wide.Add(ds.Get(id))
	}
	ghost, err := timeseries.NewSeries(timeseries.MeasurementID{Machine: "A-ghost", Metric: "cpuUtil"}, from.Add(5*timeseries.SampleStep), timeseries.SampleStep)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		ghost.Append(float64(k))
	}
	ghost.Values[3] = math.NaN()
	wide.Add(ghost)
	if wide.IDs()[0] != ghost.ID {
		t.Fatalf("the foreign series sorts at %v, want first", wide.IDs())
	}

	want, err := ref.Run(ds, from, to)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, err := mgr.Run(wide, from, to)
	if err != nil {
		t.Fatalf("Run over the wider dataset: %v", err)
	}
	if len(got) != 60 || len(want) != 60 {
		t.Fatalf("%d and %d reports, want 60 each", len(got), len(want))
	}
	for i := range want {
		if !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("report %d at %v, want %v", i, got[i].Time, want[i].Time)
		}
		compareReports(t, i, got[i], want[i])
	}
	if mgr.Steps() == 0 {
		t.Fatal("nothing scored")
	}
}

func rowValues(ds *timeseries.Dataset, t time.Time) map[timeseries.MeasurementID]float64 {
	out := make(map[timeseries.MeasurementID]float64)
	for _, id := range ds.IDs() {
		s := ds.Get(id)
		if i, ok := s.IndexOf(t); ok {
			out[id] = s.Values[i]
		}
	}
	return out
}

func TestRunEmptyDataset(t *testing.T) {
	mgr, _, _ := trainedManager(t, Config{}, 1)
	if _, err := mgr.Run(timeseries.NewDataset(), timeseries.MonitoringStart, timeseries.MonitoringEnd); err == nil {
		t.Error("empty dataset: want error")
	}
}

func TestMakePairCanonical(t *testing.T) {
	a := timeseries.MeasurementID{Machine: "b", Metric: "x"}
	b := timeseries.MeasurementID{Machine: "a", Metric: "y"}
	p1, p2 := MakePair(a, b), MakePair(b, a)
	if p1 != p2 {
		t.Error("MakePair should canonicalize order")
	}
	if p1.A != b {
		t.Error("canonical order should put the lesser ID first")
	}
	if p1.String() != "y@a ~ x@b" {
		t.Errorf("String = %q", p1.String())
	}
}

func TestLocalizationEmpty(t *testing.T) {
	var l Localization
	if l.Suspect() != "" {
		t.Error("empty localization should have no suspect")
	}
}

func TestWorstPairs(t *testing.T) {
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	fault := simulator.Fault{
		ID: "wp", Machine: simulator.MachineName("M", 1), Metric: simulator.MetricNetOut,
		Kind: simulator.FaultCorrelationBreak, Magnitude: 2.5,
		Start: day1.Add(8 * time.Hour), End: day1.Add(16 * time.Hour),
	}
	// Monitor only the workload-driven metrics (the paper's §6 selection
	// keeps correlated measurements): links of the workload-independent
	// walk metrics have intrinsically lower fitness and would crowd the
	// ranking.
	ds, gt, err := simulator.Generate(simulator.GroupConfig{
		Name: "M", Machines: 3, Days: 2, Seed: 17, Faults: []simulator.Fault{fault},
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	_ = gt
	watched := timeseries.NewDataset()
	for _, id := range ds.IDs() {
		if id.Metric != simulator.MetricMemFree && id.Metric != simulator.MetricTemp {
			watched.Add(ds.Get(id))
		}
	}
	mgr, err := New(watched.Slice(timeseries.MonitoringStart, day1), Config{
		TrackPairMeans: true,
		Model:          core.Config{Adaptive: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Phase 1: calibrate each link's own baseline on the pre-fault hours.
	if _, err := mgr.Run(watched, day1, day1.Add(8*time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	baseline := mgr.PairMeans()
	if baseline == nil {
		t.Fatal("PairMeans should be tracked")
	}
	mgr.ResetAccumulators()
	// Phase 2: the fault window.
	if _, err := mgr.Run(watched, day1.Add(8*time.Hour), day1.Add(16*time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	worst := mgr.WorstPairs(5)
	if len(worst) != 5 {
		t.Fatalf("WorstPairs = %d entries", len(worst))
	}
	if worst[0].Score >= worst[4].Score {
		t.Error("WorstPairs should sort ascending")
	}
	if worst[0].Samples == 0 {
		t.Error("samples should be counted")
	}
	// Without tracking, WorstPairs is nil.
	mgr2, ds2, _ := trainedManager(t, Config{}, 2)
	if _, err := mgr2.Run(ds2, day1, day1.Add(5*timeseries.SampleStep)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mgr2.WorstPairs(3) != nil {
		t.Error("WorstPairs without tracking should be nil")
	}
	// ResetAccumulators clears pair means too.
	mgr.ResetAccumulators()
	if mgr.WorstPairs(3) != nil {
		t.Error("WorstPairs after reset should be nil")
	}
}

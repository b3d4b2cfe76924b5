package manager

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/core"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: incremental %v (%x) != full re-score %v (%x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func compareReports(t *testing.T, step int, got, want StepReport) {
	t.Helper()
	sameBits(t, fmt.Sprintf("step %d system", step), got.System, want.System)
	if got.ScoredPairs != want.ScoredPairs {
		t.Fatalf("step %d scored pairs = %d, want %d", step, got.ScoredPairs, want.ScoredPairs)
	}
	if len(got.Measurements) != len(want.Measurements) {
		t.Fatalf("step %d measurements = %d, want %d", step, len(got.Measurements), len(want.Measurements))
	}
	for k, q := range want.Measurements {
		sameBits(t, fmt.Sprintf("step %d %s", step, want.IDs[k]), got.Measurements[k], q)
	}
}

// sameAlarms fails the test unless the two alarm streams are identical —
// same order, same fields, same score bits.
func sameAlarms(t *testing.T, got, want []alarm.Alarm) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("alarm stream length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Severity != w.Severity || g.Scope != w.Scope ||
			g.Measurement != w.Measurement || g.Peer != w.Peer || g.Message != w.Message {
			t.Fatalf("alarm %d = %v, want %v", i, g, w)
		}
		sameBits(t, fmt.Sprintf("alarm %d score", i), g.Score, w.Score)
		sameBits(t, fmt.Sprintf("alarm %d threshold", i), g.Threshold, w.Threshold)
	}
}

// TestIncrementalBitIdenticalUnderChaos is the incremental scheduler's
// property test: a manager on the default incremental path is driven
// through ≥10k rows of a fault-injected trace interleaved with random gaps
// (dropped series → model resets), random value spikes (outliers and
// adaptive grid growth) and full Save/LoadManager recovery round-trips —
// while a shadow manager with Config.FullRescore re-scores every pair
// through its model on every row. Every per-step Q^a and Q must match the
// shadow bit for bit, and so must the complete alarm streams (δ > 0 keeps
// the probability path live, so cached Outcome.Prob carry-forward is
// covered too). This is the executable form of the carry-forward
// invariant: a skipped pair's cached outcome is indistinguishable from
// re-scoring it, also right after a recovery rebuilt the runtime
// all-dirty.
func TestIncrementalBitIdenticalUnderChaos(t *testing.T) {
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "S", Machines: 2, Days: 45, Seed: 41,
		Faults: []simulator.Fault{
			{ID: "f1", Machine: simulator.MachineName("S", 1), Kind: simulator.FaultLevelShift,
				Start: day1.AddDate(0, 0, 4), End: day1.AddDate(0, 0, 4).Add(9 * time.Hour)},
			{ID: "f2", Machine: simulator.MachineName("S", 2), Kind: simulator.FaultCorrelationBreak,
				Start: day1.AddDate(0, 0, 15), End: day1.AddDate(0, 0, 15).Add(12 * time.Hour)},
			{ID: "f3", Machine: simulator.MachineName("S", 1), Kind: simulator.FaultFlapping,
				Start: day1.AddDate(0, 0, 30), End: day1.AddDate(0, 0, 30).Add(6 * time.Hour)},
		},
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	history := ds.Slice(timeseries.MonitoringStart, day1)
	// Dense rows in ds.IDs() order, which is every manager's IDs() order
	// here; each row is a copy the chaos below may write into.
	ids := ds.IDs()
	var times []time.Time
	var rows [][]float64
	err = ds.EachRow(ids, day1, timeseries.MonitoringStart.AddDate(0, 0, 45), func(tm time.Time, row []float64) {
		if len(rows) < chaosSteps() {
			times = append(times, tm)
			rows = append(rows, slices.Clone(row))
		}
	})
	if err != nil {
		t.Fatalf("EachRow: %v", err)
	}

	// δ, thresholds and adaptive mode all on: the shadow manager scores
	// probabilities every step, the incremental side must carry them
	// forward bit-exactly.
	// A small grid cap keeps the adaptive growth that spikes provoke
	// cheap (growth rebuilds are O(s²) and the property doesn't depend on
	// grid resolution), so the 10k-step run stays fast.
	mcfg := Config{
		Model:                core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 8}},
		Workers:              2,
		MeasurementThreshold: 0.45,
		SystemThreshold:      0.5,
		ProbDelta:            0.01,
	}
	refSink := &alarm.MemorySink{}
	refCfg := mcfg
	refCfg.FullRescore = true
	refCfg.Sink = refSink
	ref, err := New(history, refCfg)
	if err != nil {
		t.Fatalf("New shadow manager: %v", err)
	}
	defer ref.Close()

	sink := &alarm.MemorySink{}
	subCfg := mcfg
	subCfg.Sink = sink
	mgr, err := New(history, subCfg)
	if err != nil {
		t.Fatalf("New manager: %v", err)
	}
	defer func() { mgr.Close() }()

	rng := rand.New(rand.NewSource(7))
	minDirty := len(mgr.Pairs())
	for i, row := range rows {
		// Chaos mutations hit both sides identically — they are part of
		// the stream, not of either manager.
		if rng.Float64() < 0.02 { // monitoring gap: drop 1–3 series
			for k := rng.Intn(3) + 1; k > 0; k-- {
				row[rng.Intn(len(ids))] = math.NaN()
			}
		}
		if rng.Float64() < 0.01 { // spike: outlier or grid growth; a gap stays one
			k := rng.Intn(len(ids))
			row[k] = row[k]*6 + 1
		}
		compareReports(t, i, mgr.StepValues(times[i], row), ref.StepValues(times[i], row))
		if d := dirtyPairs(mgr); d < minDirty {
			minDirty = d
		}

		// Subject-only chaos: the shadow never recovers; the subject must
		// come back bit-identical anyway.
		if i%997 == 996 || i%1499 == 1498 {
			var saved bytes.Buffer
			if err := mgr.Save(&saved); err != nil {
				t.Fatalf("step %d: Save: %v", i, err)
			}
			mgr.Close()
			if mgr, err = LoadManager(&saved, sink); err != nil {
				t.Fatalf("step %d: LoadManager: %v", i, err)
			}
		}
	}

	sameBits(t, "system mean", mgr.SystemMean(), ref.SystemMean())
	gotMeans, wantMeans := mgr.MeasurementMeans(), ref.MeasurementMeans()
	for id, q := range wantMeans {
		sameBits(t, fmt.Sprintf("mean %s", id), gotMeans[id], q)
	}
	sameAlarms(t, sink.Alarms(), refSink.Alarms())

	// The property only has teeth if the incremental side actually
	// skipped work somewhere along the run.
	if mgr.Steps() == 0 {
		t.Fatal("no steps scored")
	}
	if minDirty == len(mgr.Pairs()) {
		t.Fatalf("every row re-scored all %d pairs — incremental path never engaged", minDirty)
	}
}

package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

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

// copyRow returns a deep copy of row so chaos mutations never alias the
// original.
func copyRow(row manager.Row) manager.Row {
	vals := make(map[timeseries.MeasurementID]float64, len(row.Values))
	for id, v := range row.Values {
		vals[id] = v
	}
	return manager.Row{Time: row.Time, Values: vals}
}

// TestIncrementalBitIdenticalUnderChaos is the incremental scheduler's
// property test: a sharded coordinator on the default incremental path is
// driven through ≥10k rows of a fault-injected trace interleaved with
// random gaps (dropped series → model resets), random value spikes
// (outliers and adaptive grid growth), reshards to random shard counts,
// and full save/load recovery round-trips — while a shadow unsharded
// manager with Config.FullRescore re-scores every pair through its model
// on every row. Every per-step Q^a and Q must match the shadow bit for
// bit, and so must the complete alarm streams (δ > 0 keeps the
// probability path live, so cached Outcome.Prob carry-forward is covered
// too). This is the executable form of the carry-forward invariant: a
// skipped pair's cached outcome is indistinguishable from re-scoring it.
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
	rows, err := manager.BuildRows(ds, day1, timeseries.MonitoringStart.AddDate(0, 0, 45))
	if err != nil {
		t.Fatalf("BuildRows: %v", err)
	}
	if steps := chaosSteps(); len(rows) > steps {
		rows = rows[:steps]
	}

	// δ, thresholds and adaptive mode all on: the shadow manager scores
	// probabilities every step, the incremental side must carry them
	// forward bit-exactly.
	// A small grid cap keeps the adaptive growth that spikes provoke
	// cheap (growth rebuilds are O(s²) and the property doesn't depend on
	// grid resolution), so the 10k-step run stays fast.
	mcfg := manager.Config{
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
	ref, err := manager.New(history, refCfg)
	if err != nil {
		t.Fatalf("New shadow manager: %v", err)
	}
	defer ref.Close()

	sink := &alarm.MemorySink{}
	subCfg := mcfg
	subCfg.Sink = sink
	coord, err := New(history, Config{Shards: 2, Manager: subCfg})
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	defer func() { coord.Close() }()

	ids := ds.IDs()
	rng := rand.New(rand.NewSource(7))
	minDirty := len(coord.Pairs())
	for i, row := range rows {
		// Chaos mutations hit both sides identically — they are part of
		// the stream, not of either scoring fabric.
		if rng.Float64() < 0.02 { // monitoring gap: drop 1–3 series
			row = copyRow(row)
			for k := rng.Intn(3) + 1; k > 0; k-- {
				delete(row.Values, ids[rng.Intn(len(ids))])
			}
		}
		if rng.Float64() < 0.01 { // spike: outlier or grid growth
			row = copyRow(row)
			id := ids[rng.Intn(len(ids))]
			if v, ok := row.Values[id]; ok {
				row.Values[id] = v*6 + 1
			}
		}
		compareReports(t, i, coord.Step(row), ref.Step(row))
		if d := lastDirtySum(coord); d < minDirty {
			minDirty = d
		}

		// Fabric-only chaos: the shadow never reshards or recovers; the
		// subject must come back bit-identical anyway.
		if i%997 == 996 {
			if _, err := coord.Reshard(rng.Intn(4) + 1); err != nil {
				t.Fatalf("step %d: Reshard: %v", i, err)
			}
		}
		if i%1499 == 1498 {
			var saved bytes.Buffer
			if err := coord.Save(&saved); err != nil {
				t.Fatalf("step %d: Save: %v", i, err)
			}
			coord.Close()
			if coord, err = Load(&saved, sink); err != nil {
				t.Fatalf("step %d: Load: %v", i, err)
			}
		}
	}

	sameBits(t, "system mean", coord.SystemMean(), ref.SystemMean())
	gotMeans, wantMeans := coord.MeasurementMeans(), ref.MeasurementMeans()
	for id, q := range wantMeans {
		sameBits(t, fmt.Sprintf("mean %s", id), gotMeans[id], q)
	}
	sameAlarms(t, sink.Alarms(), refSink.Alarms())

	// The property only has teeth if the incremental side actually
	// skipped work somewhere along the run.
	if coord.Steps() == 0 {
		t.Fatal("no steps scored")
	}
	if minDirty == len(coord.Pairs()) {
		t.Fatalf("every row re-scored all %d pairs — incremental path never engaged", minDirty)
	}
}

// lastDirtySum sums LastDirtyPairs across the coordinator's shards.
func lastDirtySum(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.shards {
		n += s.LastDirtyPairs()
	}
	return n
}

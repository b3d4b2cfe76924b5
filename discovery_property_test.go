package mcorr_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/mathx"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// The discovery tier's core safety property: mutating the pair graph
// mid-stream (evicting one pair, admitting another) must not perturb any
// surviving pair's trajectory. Q^{a,b} is a function of that pair's model
// and its own chain state alone, so a subject fleet whose graph churns
// must score every untouched pair bit-identically (Float64bits) to a
// shadow fleet that never changed — including after a save/load recovery
// cycle. (The
// aggregates Q^a and Q are means over the current link set, so they
// legitimately move when the graph does; the invariant lives at the pair
// level.)

// propertyFixture builds the shared simulator world: 2 clean days of
// group "P", day 1 for training, day 2 streamed row by row.
func propertyFixture(t *testing.T) (history *timeseries.Dataset, rows []manager.Row, cfg manager.Config) {
	t.Helper()
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "P", Machines: 3, Days: 2, Seed: 17,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history = ds.Slice(timeseries.MonitoringStart, day1)
	// Every series covers both days, so each map row holds every
	// measurement.
	ids := ds.IDs()
	err = ds.EachRow(ids, day1, day1.AddDate(0, 0, 1), func(tm time.Time, row []float64) {
		vals := make(map[timeseries.MeasurementID]float64, len(ids))
		for i, v := range row {
			vals[ids[i]] = v
		}
		rows = append(rows, manager.Row{Time: tm, Values: vals})
	})
	if err != nil {
		t.Fatalf("EachRow: %v", err)
	}
	cfg = manager.Config{
		Model: core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 12}},
	}
	return history, rows, cfg
}

// trainPairModel fits a fresh model for p from the training history, the
// same way the discovery tier trains an admission.
func trainPairModel(t *testing.T, history *timeseries.Dataset, p manager.Pair, cfg core.Config) *core.Model {
	t.Helper()
	sa, sb := history.Get(p.A), history.Get(p.B)
	if sa == nil || sb == nil {
		t.Fatalf("pair %s outside dataset", p)
	}
	var pts []mathx.Point2
	for i := 0; i < sa.Len(); i++ {
		tm := sa.Start.Add(time.Duration(i) * sa.Step)
		j, ok := sb.IndexOf(tm)
		if !ok {
			continue
		}
		x, y := sa.Values[i], sb.Values[j]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		pts = append(pts, mathx.Point2{X: x, Y: y})
	}
	model, err := core.Train(pts, cfg)
	if err != nil {
		t.Fatalf("Train(%s): %v", p, err)
	}
	return model
}

// comparePairScores asserts that every survivor left this row in the same
// state in subject and shadow (PairStates after the row): scored by both or
// by neither, with bit-identical Q^{a,b}.
func comparePairScores(t *testing.T, row int, survivors []manager.Pair, subject, shadow []manager.PairState) {
	t.Helper()
	byPair := func(states []manager.PairState) map[manager.Pair]manager.PairState {
		out := make(map[manager.Pair]manager.PairState, len(states))
		for _, st := range states {
			out[st.Pair] = st
		}
		return out
	}
	sub, sh := byPair(subject), byPair(shadow)
	for _, p := range survivors {
		want, inShadow := sh[p]
		got, inSubject := sub[p]
		if !inShadow || !inSubject {
			t.Fatalf("row %d: survivor %s in shadow=%v subject=%v", row, p, inShadow, inSubject)
		}
		if got.Scored != want.Scored {
			t.Fatalf("row %d: pair %s scored in shadow=%v subject=%v", row, p, want.Scored, got.Scored)
		}
		if math.Float64bits(got.Fitness) != math.Float64bits(want.Fitness) {
			t.Fatalf("row %d: pair %s diverged: subject %.17g (%016x) shadow %.17g (%016x)",
				row, p, got.Fitness, math.Float64bits(got.Fitness), want.Fitness, math.Float64bits(want.Fitness))
		}
	}
}

// TestGraphChurnLeavesSurvivorsBitIdentical is the property on a manager:
// the subject starts without one pair, evicts another mid-stream,
// admits the missing one later, and round-trips through Save/LoadManager
// — while every untouched pair tracks the shadow exactly.
func TestGraphChurnLeavesSurvivorsBitIdentical(t *testing.T) {
	history, rows, cfg := propertyFixture(t)

	shadow, err := manager.New(history, cfg)
	if err != nil {
		t.Fatalf("shadow New: %v", err)
	}
	defer shadow.Close()
	all := shadow.Pairs()
	manager.SortPairs(all)
	if len(all) < 4 {
		t.Fatalf("fixture too small: %d pairs", len(all))
	}
	victim, missing := all[0], all[1]
	var survivors []manager.Pair
	for _, p := range all[2:] {
		survivors = append(survivors, p)
	}

	subject, err := manager.NewSubset(history, cfg, func(p manager.Pair) bool { return p != missing })
	if err != nil {
		t.Fatalf("subject NewSubset: %v", err)
	}
	defer func() { subject.Close() }()
	if len(subject.Pairs()) != len(all)-1 {
		t.Fatalf("subject starts with %d pairs, want %d", len(subject.Pairs()), len(all)-1)
	}

	const (
		evictAt  = 40
		admitAt  = 140
		reloadAt = 200
	)
	for i, row := range rows {
		switch i {
		case evictAt:
			if !subject.RemovePair(victim) {
				t.Fatalf("row %d: victim %s was not present", i, victim)
			}
		case admitAt:
			model := trainPairModel(t, history, missing, cfg.Model)
			if err := subject.AddModel(missing, model); err != nil {
				t.Fatalf("row %d: AddModel(%s): %v", i, missing, err)
			}
		case reloadAt:
			var buf bytes.Buffer
			if err := subject.Save(&buf); err != nil {
				t.Fatalf("row %d: Save: %v", i, err)
			}
			subject.Close()
			subject, err = manager.LoadManager(&buf, nil)
			if err != nil {
				t.Fatalf("row %d: LoadManager: %v", i, err)
			}
		}
		subject.Step(row)
		shadow.Step(row)
		comparePairScores(t, i, survivors, subject.PairStates(), shadow.PairStates())
	}

	// The churned pairs ended where the mutations left them: victim out,
	// missing in.
	final := subject.Pairs()
	hasVictim, hasMissing := false, false
	for _, p := range final {
		hasVictim = hasVictim || p == victim
		hasMissing = hasMissing || p == missing
	}
	if hasVictim || !hasMissing {
		t.Errorf("final graph: victim present=%v missing present=%v, want false/true", hasVictim, hasMissing)
	}
}

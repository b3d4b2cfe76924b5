package discover

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// testIDs builds machines×metrics measurement IDs.
func testIDs(machines, metrics int) []timeseries.MeasurementID {
	var ids []timeseries.MeasurementID
	for m := 0; m < machines; m++ {
		for c := 0; c < metrics; c++ {
			ids = append(ids, timeseries.MeasurementID{
				Machine: fmt.Sprintf("m%02d", m),
				Metric:  fmt.Sprintf("c%d", c),
			})
		}
	}
	return ids
}

// corrRows synthesizes dense rows, one value per id in the order given,
// where all series share one latent driver (so every pair is correlated)
// plus per-series noise.
func corrRows(ids []timeseries.MeasurementID, n int, seed uint64, noise float64) [][]float64 {
	rnd := lcg(seed)
	rows := make([][]float64, n)
	for t := range rows {
		driver := rnd()
		rows[t] = make([]float64, len(ids))
		for k := range ids {
			rows[t][k] = driver*(1+0.1*float64(k%5)) + noise*rnd()
		}
	}
	return rows
}

// indepRows synthesizes dense rows where every series is independent noise.
func indepRows(ids []timeseries.MeasurementID, n int, seed uint64) [][]float64 {
	rnd := lcg(seed)
	rows := make([][]float64, n)
	for t := range rows {
		rows[t] = make([]float64, len(ids))
		for k := range ids {
			rows[t][k] = rnd()
		}
	}
	return rows
}

func TestCandidateIndexRoundTrip(t *testing.T) {
	ids := testIDs(3, 4) // l = 12
	d, err := New(ids, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := len(ids)
	if d.NumCandidates() != l*(l-1)/2 {
		t.Fatalf("NumCandidates = %d, want %d", d.NumCandidates(), l*(l-1)/2)
	}
	c := 0
	for i := 0; i < l-1; i++ {
		for j := i + 1; j < l; j++ {
			gi, gj := d.pairAt(c)
			if gi != i || gj != j {
				t.Fatalf("pairAt(%d) = (%d,%d), want (%d,%d)", c, gi, gj, i, j)
			}
			if got := d.candOf(i, j); got != c {
				t.Fatalf("candOf(%d,%d) = %d, want %d", i, j, got, c)
			}
			if got := d.candidateOf(d.pairOf(c)); got != c {
				t.Fatalf("candidateOf(pairOf(%d)) = %d", c, got)
			}
			c++
		}
	}
}

func TestBootstrapRespectsBudgetAndTopK(t *testing.T) {
	ids := testIDs(4, 3) // l = 12, 66 candidates
	rows := corrRows(ids, 200, 11, 0.05)

	d, err := New(ids, Config{Budget: 10, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	admitted := d.Bootstrap(rows)
	if len(admitted) != 10 {
		t.Fatalf("admitted %d pairs, want budget 10", len(admitted))
	}
	got, budget, cand := d.BudgetInfo()
	if got != 10 || budget != 10 || cand != 66 {
		t.Fatalf("BudgetInfo = (%d,%d,%d)", got, budget, cand)
	}
	if !reflect.DeepEqual(admitted, d.Admitted()) {
		t.Fatal("Bootstrap return and Admitted() disagree")
	}
	scores := d.AdmissionScores()
	if len(scores) != 10 {
		t.Fatalf("AdmissionScores has %d entries", len(scores))
	}
	for p, r := range scores {
		if !finite(r) || math.Abs(r) > 1 {
			t.Fatalf("score %g for %s", r, p)
		}
	}
}

// TestBootstrapReadsObserveColumns pins that Bootstrap reads a dense row
// in the column order New was given, as Observe does: a discoverer over the
// IDs in reverse, fed the same rows with their columns reversed, admits the
// same pairs, makes the same graph changes and ends in the same state.
func TestBootstrapReadsObserveColumns(t *testing.T) {
	ids := testIDs(3, 3)
	rev := slices.Clone(ids)
	slices.Reverse(rev)
	flip := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, row := range rows {
			out[i] = slices.Clone(row)
			slices.Reverse(out[i])
		}
		return out
	}
	boot := corrRows(ids, 120, 31, 0.3)
	boot[7][2], boot[90][5] = math.NaN(), math.Inf(1) // gaps
	stream := append(indepRows(ids, 90, 37), corrRows(ids, 90, 41, 0.05)...)
	cfg := Config{Budget: 6, TopK: 2, RoundRows: 30, EvictAfter: 2, MinEffSamples: 8, TrainWindow: 50}
	fwd, err := New(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := New(rev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bwd.Bootstrap(flip(boot)), fwd.Bootstrap(boot); !reflect.DeepEqual(got, want) {
		t.Fatalf("reversed columns admitted %v, want %v", got, want)
	}
	for i, row := range flip(stream) {
		if got, want := bwd.Observe(row), fwd.Observe(stream[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: reversed columns changed %+v, want %+v", i, got, want)
		}
	}
	got, err := bwd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fwd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reversed columns ended in another state")
	}
}

func TestBootstrapUnlimitedBudgetAdmitsByTopK(t *testing.T) {
	ids := testIDs(2, 3) // l = 6, 15 candidates
	rows := corrRows(ids, 150, 13, 0.05)
	d, err := New(ids, Config{Budget: 0, TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	admitted := d.Bootstrap(rows)
	// TopK=8 > l−1=5: every correlated candidate admits.
	if len(admitted) != 15 {
		t.Fatalf("admitted %d, want all 15", len(admitted))
	}
}

func TestBootstrapTopKChargingBound(t *testing.T) {
	// Every admission has an endpoint whose degree was < TopK at the
	// time; charging each edge to that endpoint bounds the unlimited-
	// budget graph at TopK·l edges (l−1 reachable at TopK=1, since each
	// edge must consume a fresh vertex).
	ids := testIDs(4, 3) // l = 12
	rows := corrRows(ids, 200, 11, 0.05)
	d, err := New(ids, Config{Budget: 0, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	admitted := d.Bootstrap(rows)
	if len(admitted) > len(ids)-1 {
		t.Fatalf("TopK=1 admitted %d edges, charging bound is %d", len(admitted), len(ids)-1)
	}
	if len(admitted) == 0 {
		t.Fatal("TopK=1 admitted nothing on correlated rows")
	}
}

func TestObserveAdmitsEmergingCorrelation(t *testing.T) {
	ids := testIDs(2, 2) // l = 4, 6 candidates
	d, err := New(ids, Config{Budget: 6, RoundRows: 40, ProbeBatch: 6, MinEffSamples: 8, AdmitAbove: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Start from an empty graph (no bootstrap corpus): every admission
	// must come from the streaming probe path.
	if got := len(d.Bootstrap(nil)); got != 0 {
		t.Fatalf("empty bootstrap admitted %d pairs", got)
	}
	rows := corrRows(ids, 200, 19, 0.02)
	var admitted int
	for _, row := range rows {
		admitted += len(d.Observe(row).Admit)
	}
	after, _, _ := d.BudgetInfo()
	if admitted == 0 || after == 0 {
		t.Fatalf("no streaming admissions on a correlated stream (admitted=%d graph=%d)", admitted, after)
	}
	// Control: an independent stream stays under the AdmitAbove floor.
	ctl, err := New(ids, Config{Budget: 6, RoundRows: 40, ProbeBatch: 6, MinEffSamples: 8, AdmitAbove: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Bootstrap(nil)
	var noise int
	for _, row := range indepRows(ids, 200, 21) {
		noise += len(ctl.Observe(row).Admit)
	}
	if noise != 0 {
		t.Fatalf("independent stream admitted %d pairs over the 0.6 floor", noise)
	}
}

func TestObserveEvictsFlatLinedPairs(t *testing.T) {
	ids := testIDs(2, 2)
	d, err := New(ids, Config{Budget: 6, RoundRows: 30, EvictAfter: 2, MinEffSamples: 8, EvictBelow: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	before := len(d.Bootstrap(corrRows(ids, 150, 23, 0.02)))
	if before == 0 {
		t.Fatal("bootstrap admitted nothing on correlated rows")
	}
	var evicted int
	for _, row := range indepRows(ids, 300, 29) {
		ch := d.Observe(row)
		evicted += len(ch.Evict)
	}
	if evicted == 0 {
		t.Fatal("no evictions after correlation flat-lined")
	}
}

func TestObserveDeterministicAcrossInstances(t *testing.T) {
	ids := testIDs(3, 2)
	cfg := Config{Budget: 8, RoundRows: 25, ProbeBatch: 5}
	boot := corrRows(ids, 120, 31, 0.3)
	stream := append(indepRows(ids, 200, 37), corrRows(ids, 200, 41, 0.05)...)

	run := func() ([]manager.Pair, []Changes) {
		d, err := New(ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Bootstrap(boot)
		var all []Changes
		for _, row := range stream {
			if ch := d.Observe(row); !ch.Empty() {
				all = append(all, ch)
			}
		}
		return d.Admitted(), all
	}
	a1, c1 := run()
	a2, c2 := run()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("admitted sets diverged between identical runs")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("change streams diverged between identical runs")
	}
}

func TestStateRoundTripContinuesIdentically(t *testing.T) {
	ids := testIDs(3, 2)
	cfg := Config{Budget: 8, RoundRows: 25, ProbeBatch: 5}
	boot := corrRows(ids, 120, 43, 0.3)
	stream := append(corrRows(ids, 150, 47, 0.05), indepRows(ids, 150, 53)...)

	ref, err := New(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Bootstrap(boot)

	sub, err := New(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub.Bootstrap(boot)

	// Split mid-round (cut not on a RoundRows boundary) to exercise the
	// serialized probe set and partial round counter.
	cut := 110
	var refCh, subCh []Changes
	for i, row := range stream {
		if ch := ref.Observe(row); !ch.Empty() {
			refCh = append(refCh, ch)
		}
		if i < cut {
			if ch := sub.Observe(row); !ch.Empty() {
				subCh = append(subCh, ch)
			}
		}
	}
	blob, err := sub.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	for _, row := range stream[cut:] {
		if ch := restored.Observe(row); !ch.Empty() {
			subCh = append(subCh, ch)
		}
	}
	if !reflect.DeepEqual(ref.Admitted(), restored.Admitted()) {
		t.Fatal("restored discoverer's admitted set diverged from uninterrupted run")
	}
	if !reflect.DeepEqual(refCh, subCh) {
		t.Fatal("restored discoverer's change stream diverged from uninterrupted run")
	}
}

func TestUnmarshalStateRejectsMismatchedFleet(t *testing.T) {
	ids := testIDs(2, 2)
	d, _ := New(ids, Config{})
	d.Bootstrap(corrRows(ids, 80, 59, 0.1))
	blob, err := d.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	other, _ := New(testIDs(2, 3), Config{})
	if err := other.UnmarshalState(blob); err == nil {
		t.Fatal("want fleet mismatch error")
	}
	// A differently-configured receiver adopts the serialized config —
	// the checkpoint is authoritative, same as shard topology on recovery.
	shaped, _ := New(ids, Config{Lags: 7, TrainWindow: 99})
	if err := shaped.UnmarshalState(blob); err != nil {
		t.Fatalf("config drift must be adopted, got %v", err)
	}
	if got, want := shaped.Config().TrainWindow, d.Config().TrainWindow; got != want {
		t.Fatalf("adopted TrainWindow = %d, want %d", got, want)
	}
}

func TestTrainingPointsAlignment(t *testing.T) {
	ids := testIDs(2, 1)
	d, err := New(ids, Config{TrainWindow: 50, MinTrain: 10})
	if err != nil {
		t.Fatal(err)
	}
	rows := corrRows(ids, 80, 61, 0.0)
	d.Bootstrap(rows)
	p := manager.MakePair(ids[0], ids[1])
	pts := d.TrainingPoints(p)
	if len(pts) != 50 {
		t.Fatalf("got %d training points, want TrainWindow=50", len(pts))
	}
	// With zero noise the synthetic generator makes Y an affine function
	// of X; check alignment via exact linearity of each point.
	for _, pt := range pts {
		if !finite(pt.X) || !finite(pt.Y) {
			t.Fatalf("non-finite training point %+v", pt)
		}
	}
	if d.TrainingPoints(manager.MakePair(ids[0], timeseries.MeasurementID{Machine: "zz", Metric: "q"})) != nil {
		t.Fatal("out-of-fleet pair must return nil")
	}
}

func TestSyncAdmittedRebuildsGraph(t *testing.T) {
	ids := testIDs(3, 2)
	d, err := New(ids, Config{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []manager.Pair{
		manager.MakePair(ids[0], ids[1]),
		manager.MakePair(ids[2], ids[4]),
	}
	d.SyncAdmitted(append(want, want[0])) // duplicate ignored
	got := d.Admitted()
	manager.SortPairs(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Admitted = %v, want %v", got, want)
	}
}

// TestNewRefusesUnusableThresholds: a NaN or infinite admission or eviction
// threshold — every |r| comparison false, so discovery silently never admits
// or never evicts — or one above 1, which no |r| reaches, is an error naming
// the field; 0 and negative values select the defaults, and 1 and 0.99 stay
// valid.
func TestNewRefusesUnusableThresholds(t *testing.T) {
	ids := testIDs(2, 2)
	for _, tc := range []struct {
		admit, evict float64
		bad          string // the field the error names, "" for none
	}{
		{0, 0, ""},
		{-1, -0.5, ""},
		{0.5, 0.99, ""},
		{1, 1, ""},
		{math.NaN(), 0, "AdmitAbove"},
		{0, math.NaN(), "EvictBelow"},
		{math.NaN(), math.NaN(), "AdmitAbove"},
		{math.Inf(1), 0, "AdmitAbove"},
		{0, math.Inf(1), "EvictBelow"},
		{math.Inf(-1), 0, "AdmitAbove"},
		{0, math.Inf(-1), "EvictBelow"},
		{1.0000001, 0, "AdmitAbove"},
		{0.3, 2, "EvictBelow"},
	} {
		d, err := New(ids, Config{AdmitAbove: tc.admit, EvictBelow: tc.evict})
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("AdmitAbove %v EvictBelow %v: %v", tc.admit, tc.evict, err)
		case tc.bad == "" && (d.cfg.AdmitAbove <= 0 || d.cfg.EvictBelow <= 0):
			t.Errorf("AdmitAbove %v EvictBelow %v: thresholds %v, %v after defaults", tc.admit, tc.evict, d.cfg.AdmitAbove, d.cfg.EvictBelow)
		case tc.bad != "" && err == nil:
			t.Errorf("AdmitAbove %v EvictBelow %v: accepted, thresholds %v, %v", tc.admit, tc.evict, d.cfg.AdmitAbove, d.cfg.EvictBelow)
		case tc.bad != "" && !strings.Contains(err.Error(), tc.bad):
			t.Errorf("AdmitAbove %v EvictBelow %v: %v does not name %s", tc.admit, tc.evict, err, tc.bad)
		}
	}
}

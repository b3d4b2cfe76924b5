package shard

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// fakeScorer owns a pair list and answers every row with each pair's
// fakeFitness; it notes whether its last ScoreInto ran below the test
// function, i.e. on the goroutine that called Round.
type fakeScorer struct {
	pairs    []manager.Pair
	calls    int
	onCaller bool
}

func (s *fakeScorer) Pairs() []manager.Pair { return s.pairs }

func (s *fakeScorer) ScoreInto(_ []float64, idx []int, dst []manager.Outcome) {
	for i, p := range s.pairs {
		dst[idx[i]] = manager.Outcome{Fitness: fakeFitness(p), Scored: true}
	}
	s.calls++
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	s.onCaller = false
	for more := true; more; {
		var fr runtime.Frame
		fr, more = frames.Next()
		if strings.HasSuffix(fr.Function, ".TestFabricRoundScattersInCanonicalOrder") {
			s.onCaller = true
		}
	}
}

// fakeFitness is a value that names its pair: the metric suffixes of the
// two endpoints as decimal digits.
func fakeFitness(p manager.Pair) float64 {
	return float64(p.A.Metric[1]-'0')/10 + float64(p.B.Metric[1]-'0')/100
}

// TestFabricRoundScattersInCanonicalOrder states the property every
// fleet's bit-identity rests on, with no model in sight: whatever the
// split of the pair graph over the scorers, one round leaves every
// scorer's outcome for a pair at that pair's index of the global canonical
// order, which is the order the Aggregator folds — and a rebuild after a
// pair changed owner maps it afresh.
func TestFabricRoundScattersInCanonicalOrder(t *testing.T) {
	ids := make([]timeseries.MeasurementID, 5)
	for i := range ids {
		ids[i] = timeseries.MeasurementID{Machine: "m", Metric: "c" + string(rune('0'+i))}
	}
	var all []manager.Pair
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			all = append(all, manager.MakePair(ids[i], ids[j]))
		}
	}
	manager.SortPairs(all)
	// Interleaved: consecutive pairs of the canonical order never share a
	// scorer.
	fakes := []*fakeScorer{{}, {}, {}}
	for i, p := range all {
		fakes[i%3].pairs = append(fakes[i%3].pairs, p)
	}
	scorers := func() []Scorer {
		out := make([]Scorer, len(fakes))
		for k, s := range fakes {
			out[k] = s
		}
		return out
	}

	var mu sync.Mutex
	settled := 0
	f := NewFabric(&mu, manager.NewAggregator(ids, manager.Config{KeepPairScores: true}), nil, func() {
		// Every scorer has answered the row by the time the coordinator
		// settles it.
		for k, s := range fakes {
			if s.calls != settled+1 {
				t.Errorf("settle %d ran with scorer %d at %d calls", settled, k, s.calls)
			}
		}
		settled++
	})
	f.Rebuild(scorers())

	check := func(round int) {
		t.Helper()
		sp := obs.StartSpan("test")
		mu.Lock()
		report := f.Round(timeseries.MonitoringStart.Add(time.Duration(round)*time.Minute), make([]float64, len(ids)), sp)
		mu.Unlock()
		sp.End()
		if settled != round {
			t.Fatalf("round %d: settle ran %d times", round, settled)
		}
		if !slices.Equal(f.Pairs(), all) {
			t.Fatalf("round %d: Pairs() = %v, want the canonical order %v", round, f.Pairs(), all)
		}
		if report.ScoredPairs != len(all) {
			t.Fatalf("round %d: ScoredPairs = %d, want %d", round, report.ScoredPairs, len(all))
		}
		for i, p := range all {
			if got := f.outcomes[i].Fitness; got != fakeFitness(p) {
				t.Errorf("round %d: outcome %d holds %v, want pair %s's %v", round, i, got, p, fakeFitness(p))
			}
			if got := report.Pairs[p]; got != fakeFitness(p) {
				t.Errorf("round %d: report scores pair %s %v, want %v", round, p, got, fakeFitness(p))
			}
		}
		if !fakes[0].onCaller || fakes[1].onCaller || fakes[2].onCaller {
			t.Errorf("round %d: on the calling goroutine: %v %v %v, want only shard 0",
				round, fakes[0].onCaller, fakes[1].onCaller, fakes[2].onCaller)
		}
		for k, s := range fakes {
			if !slices.Equal(f.ShardPairs(k), s.pairs) {
				t.Errorf("round %d: ShardPairs(%d) = %v, want %v", round, k, f.ShardPairs(k), s.pairs)
			}
		}
	}
	check(1)
	if got := f.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	if f.ShardPairs(-1) != nil || f.ShardPairs(3) != nil {
		t.Fatal("ShardPairs out of range is not nil")
	}

	// Move the first pair of the order from scorer 0 to the end of scorer
	// 2's list: its local position changes, its global index must not.
	moved := fakes[0].pairs[0]
	fakes[0].pairs = fakes[0].pairs[1:]
	fakes[2].pairs = append(fakes[2].pairs, moved)
	f.Rebuild(scorers())
	check(2)
}

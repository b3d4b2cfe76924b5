package shard

import (
	"sync"
	"time"

	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// Scorer is one shard as the Fabric sees it: the owner of the models of a
// subset of the pair graph, disjoint from every other shard's.
// *manager.Manager is one; the networked fabric's is a worker connection.
type Scorer interface {
	// Pairs returns the links the scorer owns. The Fabric only reads them.
	Pairs() []manager.Pair
	// ScoreInto scores the row vals against every owned link, in Pairs()
	// order, writing link i's outcome to dst[idx[i]] (see
	// manager.Manager.ScoreInto). Scorers run concurrently on one dst.
	ScoreInto(vals []float64, idx []int, dst []manager.Outcome)
}

// Fabric is the round every sharded fleet runs, in this process or over a
// network: fan one row out to the shards, scatter their per-pair outcomes
// into one slice in the global canonical pair order, and fold that slice
// through the one central Aggregator — the code, and the float addition
// order, of the unsharded Manager.Step, which is what makes a fleet's
// trajectory bit-identical for any shard count and either transport. Both
// coordinators embed it, so the running means, localization and drill-down
// (Aggregator) and Step(Row)/Run (MapRows) are their own methods.
//
// It borrows its coordinator's lock: Pairs, NumShards and ShardPairs take
// it; Rebuild and Round are called with it held.
type Fabric struct {
	*manager.Aggregator
	*manager.MapRows

	mu     sync.Locker
	settle func()
	ids    []timeseries.MeasurementID
	wg     sync.WaitGroup // the round's fan-out; rounds never overlap

	// Rebuilt whenever a pair changes owner, appears or goes.
	scorers  []Scorer
	pairs    []manager.Pair    // global canonical pair order
	pairIdx  [][2]int          // pairs[i] → indices into ids
	outcomes []manager.Outcome // global scatter buffer, reused every round
	localIdx [][]int           // per shard: local pair position → global index
}

// NewFabric builds the round around a coordinator's lock and aggregator.
// step is the coordinator's StepValues, which map rows are fed through;
// settle runs inside every round on the caller's goroutine, once all
// scorers have returned and before their outcomes are aggregated. The
// fabric has no shards until Rebuild.
func NewFabric(mu sync.Locker, agg *manager.Aggregator, step func(time.Time, []float64) manager.StepReport, settle func()) *Fabric {
	ids := agg.IDs()
	return &Fabric{Aggregator: agg, MapRows: manager.NewMapRows(ids, step), mu: mu, settle: settle, ids: ids}
}

// Rebuild installs a shard set and derives the scatter state from what
// each scorer owns now: the global canonical pair order, every shard's
// local→global index map, the aggregation index and the outcome buffer.
func (f *Fabric) Rebuild(scorers []Scorer) {
	local := make([][]manager.Pair, len(scorers))
	var all []manager.Pair
	for k, s := range scorers {
		local[k] = s.Pairs()
		all = append(all, local[k]...)
	}
	manager.SortPairs(all)
	global := make(map[manager.Pair]int, len(all))
	for i, p := range all {
		global[p] = i
	}
	localIdx := make([][]int, len(scorers))
	for k, pairs := range local {
		localIdx[k] = make([]int, len(pairs))
		for i, p := range pairs {
			localIdx[k][i] = global[p]
		}
	}
	f.scorers, f.pairs, f.localIdx = scorers, all, localIdx
	f.pairIdx = manager.BuildPairIndex(f.ids, all)
	f.outcomes = make([]manager.Outcome, len(all))
}

// Round scores one synchronized row — vals in IDs() order, NaN for a gap —
// on every shard at once, shard 0 on the calling goroutine, lets the
// coordinator settle, and aggregates Q^{a,b} → Q^a → Q and publishes alarms
// exactly as the single-manager path does. It marks sp's "score" and
// "aggregate" phases; the Aggregator marks "alarm".
func (f *Fabric) Round(t time.Time, vals []float64, sp *obs.Span) manager.StepReport {
	sp.Phase("score")
	for k := 1; k < len(f.scorers); k++ {
		f.wg.Add(1)
		go f.score(k, vals)
	}
	f.scorers[0].ScoreInto(vals, f.localIdx[0], f.outcomes)
	f.wg.Wait()
	f.settle()
	sp.Phase("aggregate")
	return f.Aggregate(t, f.pairs, f.pairIdx, f.outcomes, sp)
}

func (f *Fabric) score(k int, vals []float64) {
	defer f.wg.Done()
	f.scorers[k].ScoreInto(vals, f.localIdx[k], f.outcomes)
}

// Pairs returns every trained link across all shards in the global
// canonical order.
func (f *Fabric) Pairs() []manager.Pair {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]manager.Pair(nil), f.pairs...)
}

// NumShards returns the current shard count.
func (f *Fabric) NumShards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.scorers)
}

// ShardPairs returns the links owned by shard k in canonical order, or nil
// when k is out of range.
func (f *Fabric) ShardPairs(k int) []manager.Pair {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k < 0 || k >= len(f.scorers) {
		return nil
	}
	return append([]manager.Pair(nil), f.scorers[k].Pairs()...)
}

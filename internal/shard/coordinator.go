package shard

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// Config controls a Coordinator.
type Config struct {
	// Shards is the number of manager shards the pair graph is
	// partitioned across (default 1). Each shard owns the models of the
	// pairs rendezvous hashing assigns it, plus its own worker pool.
	Shards int
	// Manager is the shared fleet configuration: model settings,
	// thresholds, alarm sink and reporting flags. Workers is interpreted
	// as the total worker budget and divided across shards (default
	// GOMAXPROCS).
	Manager manager.Config
	// Keep optionally restricts the trained pair graph: a pair is
	// trained only when Keep accepts it (on top of its rendezvous shard
	// assignment). Nil keeps every pair — the paper's full graph. The
	// discovery tier passes its bootstrap admission set here.
	Keep func(manager.Pair) bool
}

// Coordinator is the sharded scoring fabric: it partitions the l(l−1)/2
// measurement pairs across N independent manager shards by rendezvous
// hashing of the canonical pair key, fans each scored row out to all
// shards in parallel, scatters their per-pair outcomes into one global
// slice in canonical pair order, and aggregates Q^{a,b} → Q^a → Q through
// the same manager.Aggregator code the single-manager path uses — so its
// fitness trajectories are bit-identical to an unsharded Manager over the
// same data, for any shard count.
//
// All methods are safe for concurrent use; rows must be fed in time
// order. The zero value is not usable — construct with New or Load.
type Coordinator struct {
	// Aggregator is the central aggregation layer every shard's outcomes
	// fold through; the running means, localization and drill-down are its
	// methods.
	*manager.Aggregator
	// MapRows is Step(Row) and Run over StepValues.
	*manager.MapRows

	mu     sync.Mutex
	cfg    manager.Config // as supplied (Workers = total budget)
	ids    []timeseries.MeasurementID
	shards []*manager.Manager
	closed bool

	// Derived fan-out state, rebuilt by rebuild() after construction and
	// after every reshard.
	pairs     []manager.Pair    // global canonical pair order
	pairIdx   [][2]int          // pairs[i] → indices into ids
	outcomes  []manager.Outcome // global scatter buffer, reused every step
	localIdx  [][]int           // per shard: local pair position → global index
	scoreHist []*obs.Histogram  // per-shard scoring latency, children cached
}

// perShardWorkers divides a total worker budget across n shards, at
// least one worker each. budget <= 0 means GOMAXPROCS.
func perShardWorkers(budget, n int) int {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	per := budget / n
	if per < 1 {
		per = 1
	}
	return per
}

// Train trains the n shard managers of a fleet concurrently, each on its
// own pool: shard k gets exactly the pairs rendezvous hashing assigns it
// that keep (nil keeps all) also accepts. It is the one partitioned
// training loop behind the in-process and the networked fabric. On a
// failure the shards already trained are closed.
func Train(history *timeseries.Dataset, n int, mcfg manager.Config, keep func(manager.Pair) bool) ([]*manager.Manager, error) {
	shards := make([]*manager.Manager, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := range shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			shards[k], errs[k] = manager.NewSubset(history, mcfg, func(p manager.Pair) bool {
				return Assign(p.String(), n) == k && (keep == nil || keep(p))
			})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			for _, s := range shards {
				if s != nil {
					s.Close()
				}
			}
			return nil, fmt.Errorf("train shard %d: %w", k, err)
		}
	}
	return shards, nil
}

// New trains a sharded fleet from the history dataset: shard k trains
// (concurrently with the others, on its own pool) exactly the pairs
// rendezvous hashing assigns it. At least two measurements and one
// trainable pair are required.
func New(history *timeseries.Dataset, cfg Config) (*Coordinator, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	ids := history.IDs()
	if len(ids) < 2 {
		return nil, fmt.Errorf("shard coordinator needs at least 2 measurements, got %d", len(ids))
	}
	mcfg := cfg.Manager
	mcfg.Workers = perShardWorkers(cfg.Manager.Workers, n)
	shards, err := Train(history, n, mcfg, cfg.Keep)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		Aggregator: manager.NewAggregator(ids, cfg.Manager),
		cfg:        cfg.Manager,
		ids:        ids,
	}
	c.MapRows = manager.NewMapRows(ids, c.StepValues)
	c.rebuild(shards)
	// A non-nil Keep tolerates an empty initial graph (mirroring
	// NewSubset): discovery may admit pairs later.
	if len(c.pairs) == 0 && cfg.Keep == nil {
		c.Close()
		return nil, fmt.Errorf("shard coordinator: no trainable pairs: %w", core.ErrNoData)
	}
	return c, nil
}

// AddModel grafts a trained model into whichever shard rendezvous hashing
// assigns the pair, then rebuilds the fan-out state — the sharded mirror
// of Manager.AddModel. Surviving pairs are untouched (model pointers are
// shared; shard managers rebuild all-dirty).
func (c *Coordinator) AddModel(p manager.Pair, model *core.Model) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p = manager.MakePair(p.A, p.B)
	k := Assign(p.String(), len(c.shards))
	if err := c.shards[k].AddModel(p, model); err != nil {
		return err
	}
	c.rebuild(c.shards)
	return nil
}

// RemovePair drops a pair's model from its owning shard and rebuilds the
// fan-out state. Reports whether the pair was present.
func (c *Coordinator) RemovePair(p manager.Pair) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p = manager.MakePair(p.A, p.B)
	k := Assign(p.String(), len(c.shards))
	if !c.shards[k].RemovePair(p) {
		return false
	}
	c.rebuild(c.shards)
	return true
}

// rebuild installs a shard set and recomputes the derived fan-out state:
// the global canonical pair order, each shard's local→global index map,
// the aggregation index and the reusable scatter buffer. Callers hold
// c.mu (or are constructing c).
func (c *Coordinator) rebuild(shards []*manager.Manager) {
	c.shards = shards
	var all []manager.Pair
	for _, s := range shards {
		all = append(all, s.Pairs()...)
	}
	manager.SortPairs(all)
	c.pairs = all
	global := make(map[manager.Pair]int, len(all))
	for i, p := range all {
		global[p] = i
	}
	c.localIdx = make([][]int, len(shards))
	c.scoreHist = make([]*obs.Histogram, len(shards))
	for k, s := range shards {
		local := s.Pairs()
		idx := make([]int, len(local))
		for i, p := range local {
			idx[i] = global[p]
		}
		c.localIdx[k] = idx
		c.scoreHist[k] = obsScoreSeconds.With(strconv.Itoa(k))
		obsShardPairs.With(strconv.Itoa(k)).Set(float64(len(local)))
	}
	c.pairIdx = manager.BuildPairIndex(c.ids, all)
	c.outcomes = make([]manager.Outcome, len(all))
	obsShardCount.Set(float64(len(shards)))
}

// scoreShard runs shard k's scoring fan-out for the row, scattering
// outcomes into the global buffer, and records the shard's scoring latency.
func (c *Coordinator) scoreShard(k int, vals []float64) {
	start := time.Now()
	c.shards[k].ScoreInto(vals, c.localIdx[k], c.outcomes)
	c.scoreHist[k].Observe(time.Since(start).Seconds())
}

// StepValues scores one synchronized row — vals in IDs() order, NaN for a
// gap, read only until the call returns: every shard scores its pair subset
// in parallel (shard 0 on the calling goroutine), the outcomes land in one
// global buffer in canonical pair order, and the shared Aggregator folds
// them into Q^{a,b} → Q^a → Q and publishes alarms — the same code, in the
// same order, as the single-manager path. The phases (score → aggregate →
// alarm) are traced as span "shard.step".
func (c *Coordinator) StepValues(t time.Time, vals []float64) manager.StepReport {
	start := time.Now()
	sp := obs.StartSpan("shard.step")
	c.mu.Lock()
	defer c.mu.Unlock()
	sp.Phase("score")
	if len(c.shards) == 1 {
		c.scoreShard(0, vals)
	} else {
		var wg sync.WaitGroup
		for k := 1; k < len(c.shards); k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				c.scoreShard(k, vals)
			}(k)
		}
		c.scoreShard(0, vals)
		wg.Wait()
	}
	// Publish the fleet-wide dirty-pair count: each shard tracks its own
	// incremental scheduler, the coordinator owns the process gauge.
	dirty := 0
	for _, s := range c.shards {
		dirty += s.LastDirtyPairs()
	}
	manager.RecordDirtyPairs(dirty)
	sp.Phase("aggregate")
	report := c.Aggregate(t, c.pairs, c.pairIdx, c.outcomes, sp)
	sp.End()
	obsStepSeconds.Observe(time.Since(start).Seconds())
	return report
}

// Pairs returns every trained link across all shards in the global
// canonical order.
func (c *Coordinator) Pairs() []manager.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]manager.Pair(nil), c.pairs...)
}

// PairStates returns every link's live scheduler state across all
// shards, merged into the global canonical pair order with each state's
// Shard field set to its owner.
func (c *Coordinator) PairStates() []manager.PairState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]manager.PairState, len(c.pairs))
	for k, s := range c.shards {
		for i, st := range s.PairStates() {
			st.Shard = k
			out[c.localIdx[k][i]] = st
		}
	}
	return out
}

// NumShards returns the current shard count.
func (c *Coordinator) NumShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards)
}

// ShardPairs returns the links owned by shard k (in that shard's sorted
// order), or nil when k is out of range.
func (c *Coordinator) ShardPairs(k int) []manager.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < 0 || k >= len(c.shards) {
		return nil
	}
	return c.shards[k].Pairs()
}

// Model returns the trained model for a pair from whichever shard owns it
// (nil when absent).
func (c *Coordinator) Model(a, b timeseries.MeasurementID) *core.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := manager.MakePair(a, b)
	k := Assign(p.String(), len(c.shards))
	return c.shards[k].Model(a, b)
}

// SetAdaptive flips online updating on every model of every shard.
func (c *Coordinator) SetAdaptive(adaptive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		s.SetAdaptive(adaptive)
	}
}

// ResetChains clears every model's Markov position on every shard.
func (c *Coordinator) ResetChains() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		s.ResetChains()
	}
}

// Close stops every shard's worker pool. Safe to call more than once;
// the coordinator must not be stepped afterwards.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, s := range c.shards {
		s.Close()
	}
}

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

// Coordinator is the in-process sharded fleet: it partitions the l(l−1)/2
// measurement pairs across N independent manager shards by rendezvous
// hashing of the canonical pair key and scores every row through the
// embedded Fabric — the round it shares with the networked coordinator —
// so its fitness trajectories are bit-identical to an unsharded Manager
// over the same data, for any shard count. What it adds is what needs the
// models in this process: training, live resharding, grafting and dropping
// single pairs, Save and the per-pair scheduler states.
//
// All methods are safe for concurrent use; rows must be fed in time
// order. The zero value is not usable — construct with New or Load.
type Coordinator struct {
	*Fabric

	// mu is the step lock, lent to the Fabric: StepValues holds it for a
	// whole round, so whoever takes it finds no shard scoring.
	mu     sync.Mutex
	cfg    manager.Config // as supplied (Workers = total budget)
	shards []*manager.Manager
	closed bool
}

// newCoordinator wires a coordinator around its aggregator and installs
// the shard set.
func newCoordinator(agg *manager.Aggregator, cfg manager.Config, shards []*manager.Manager) *Coordinator {
	c := &Coordinator{cfg: cfg}
	c.Fabric = NewFabric(&c.mu, agg, c.StepValues, c.publishDirty)
	c.install(shards)
	return c
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
			closeAll(shards)
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
	c := newCoordinator(manager.NewAggregator(ids, cfg.Manager), cfg.Manager, shards)
	// A non-nil Keep tolerates an empty initial graph (mirroring
	// NewSubset): discovery may admit pairs later.
	if len(c.pairs) == 0 && cfg.Keep == nil {
		c.Close()
		return nil, fmt.Errorf("shard coordinator: no trainable pairs: %w", core.ErrNoData)
	}
	return c, nil
}

// AddModel grafts a trained model into whichever shard rendezvous hashing
// assigns the pair, then rebuilds the scatter state — the sharded mirror
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
	c.install(c.shards)
	return nil
}

// RemovePair drops a pair's model from its owning shard and rebuilds the
// scatter state. Reports whether the pair was present.
func (c *Coordinator) RemovePair(p manager.Pair) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p = manager.MakePair(p.A, p.B)
	k := Assign(p.String(), len(c.shards))
	if !c.shards[k].RemovePair(p) {
		return false
	}
	c.install(c.shards)
	return true
}

// install makes shards the fleet: each becomes a Scorer the Fabric rebuilds
// its scatter state from, timed on its own mcorr_shard_score_seconds child
// (cached here so a round never touches a vec lookup). Callers hold c.mu
// or are constructing c.
func (c *Coordinator) install(shards []*manager.Manager) {
	c.shards = shards
	scorers := make([]Scorer, len(shards))
	for k, s := range shards {
		scorers[k] = timedShard{s, obsScoreSeconds.With(strconv.Itoa(k))}
	}
	c.Rebuild(scorers)
	for k, idx := range c.localIdx {
		obsShardPairs.With(strconv.Itoa(k)).Set(float64(len(idx)))
	}
	obsShardCount.Set(float64(len(shards)))
}

// timedShard is a shard manager that records its scoring latency.
type timedShard struct {
	*manager.Manager
	hist *obs.Histogram
}

func (s timedShard) ScoreInto(vals []float64, idx []int, dst []manager.Outcome) {
	start := time.Now()
	s.Manager.ScoreInto(vals, idx, dst)
	s.hist.Observe(time.Since(start).Seconds())
}

// publishDirty is the round's settle step: each shard tracks its own
// incremental scheduler, the coordinator owns the process gauge of
// re-scored pairs.
func (c *Coordinator) publishDirty() {
	dirty := 0
	for _, s := range c.shards {
		dirty += s.LastDirtyPairs()
	}
	manager.RecordDirtyPairs(dirty)
}

// StepValues scores one synchronized row — vals in IDs() order, NaN for a
// gap, read only until the call returns — through Fabric.Round, under the
// step lock. The phases (score → aggregate → alarm) are traced as span
// "shard.step".
func (c *Coordinator) StepValues(t time.Time, vals []float64) manager.StepReport {
	start := time.Now()
	sp := obs.StartSpan("shard.step")
	c.mu.Lock()
	defer c.mu.Unlock()
	report := c.Round(t, vals, sp)
	sp.End()
	obsStepSeconds.Observe(time.Since(start).Seconds())
	return report
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
	closeAll(c.shards)
}

// closeAll stops the worker pools of a shard set, which may be partly built.
func closeAll(shards []*manager.Manager) {
	for _, s := range shards {
		if s != nil {
			s.Close()
		}
	}
}

package shard

import (
	"errors"
	"fmt"

	"mcorr/internal/core"
	"mcorr/internal/manager"
)

// ErrInvalidShardCount is returned by Reshard when the requested shard
// count is not positive. Callers retuning topology from config or an
// ops endpoint can match it with errors.Is instead of string-parsing.
var ErrInvalidShardCount = errors.New("shard count must be >= 1")

// Reshard repartitions the live pair graph across n shards without
// retraining: the coordinator drains in-flight scoring (it holds the step
// lock for the duration), collects every trained model, re-keys each pair
// under the new shard count, builds the new shard managers around the
// moved model pointers, and only then closes the old ones. The central
// aggregator — and with it every running Q accumulator — is untouched, so
// fitness trajectories continue bit-identically across the topology
// change. Returns the number of pair models that changed owner.
//
// Thanks to rendezvous hashing the movement is minimal: growing from n to
// n+1 shards moves only the pairs the new shard wins (≈1/(n+1) of the
// graph); no pair ever moves between two surviving shards.
func (c *Coordinator) Reshard(n int) (moved int, err error) {
	if n < 1 {
		return 0, fmt.Errorf("reshard: %w (got %d)", ErrInvalidShardCount, n)
	}
	// Taking the step lock is the drain: Step holds c.mu across the full
	// score→aggregate round, so once the lock is acquired no scoreShard
	// call is outstanding and every outcome of the previous row has been
	// folded. Re-keying before that drain would hand a shard manager to
	// Close mid-score.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("reshard: coordinator is closed")
	}
	// Partition the union of live models under the new topology, counting
	// owner changes against the old assignment.
	parts := make([]map[manager.Pair]*core.Model, n)
	for k := range parts {
		parts[k] = make(map[manager.Pair]*core.Model)
	}
	for oldK, s := range c.shards {
		for p, model := range s.Models() {
			newK := Assign(p.String(), n)
			parts[newK][p] = model
			if newK != oldK {
				moved++
			}
		}
	}
	mcfg := c.cfg
	mcfg.Workers = perShardWorkers(c.cfg.Workers, n)
	next := make([]*manager.Manager, n)
	for k := range next {
		m, err := manager.FromModels(c.ids, parts[k], mcfg)
		if err != nil {
			closeAll(next)
			return 0, fmt.Errorf("reshard to %d: %w", n, err)
		}
		next[k] = m
	}
	prev := c.shards
	c.install(next)
	closeAll(prev)
	obsReshards.Inc()
	obsPairsMoved.Add(uint64(moved))
	return moved, nil
}

package shardnet

import (
	"fmt"
	"sync"

	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// Rendezvous (highest-random-weight) hashing assigns each canonical pair
// key to one of n shards. Every (key, shard) combination gets a
// deterministic pseudo-random weight; the key lives on the shard with the
// highest weight. When a shard is added, the only keys that move are the
// ones the new shard wins — no key ever moves between two pre-existing
// shards; when a shard is removed, only its own keys move.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// weight computes the HRW weight of key on shard k: an FNV-1a hash of the
// key folded with the shard index, finished with a SplitMix64-style
// avalanche so shard indices that differ in one bit still produce
// uncorrelated weights.
func weight(key string, k int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	h ^= uint64(k)
	h *= fnvPrime64
	// SplitMix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Assign returns the shard in [0, shards) owning key under rendezvous
// hashing. It is a pure function of (key, shards): the pair→worker
// partition needs no persisted map — a restarted worker's checkpoint is
// checked against it. shards < 2 always yields 0.
func Assign(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	best := 0
	bestW := weight(key, 0)
	for k := 1; k < shards; k++ {
		if w := weight(key, k); w > bestW {
			best, bestW = k, w
		}
	}
	return best
}

// train trains the n shard managers of a fleet concurrently, each on its
// own pool: shard k gets exactly the pairs rendezvous hashing assigns it
// that keep (nil keeps all) also accepts. On a failure the shards already
// trained are closed.
func train(history *timeseries.Dataset, n int, mcfg manager.Config, keep func(manager.Pair) bool) ([]*manager.Manager, error) {
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

// scatter lays the shards' pair lists out in the one global canonical
// order the Aggregator folds — the float addition order of an unsharded
// Manager.Step, which is what makes the networked trajectory bit-identical
// to it — and maps each shard's local pair position to its global index.
func scatter(local [][]manager.Pair) (all []manager.Pair, localIdx [][]int) {
	for _, pairs := range local {
		all = append(all, pairs...)
	}
	manager.SortPairs(all)
	global := make(map[manager.Pair]int, len(all))
	for i, p := range all {
		global[p] = i
	}
	localIdx = make([][]int, len(local))
	for k, pairs := range local {
		localIdx[k] = make([]int, len(pairs))
		for i, p := range pairs {
			localIdx[k][i] = global[p]
		}
	}
	return all, localIdx
}

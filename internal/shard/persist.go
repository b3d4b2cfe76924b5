package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"mcorr/internal/alarm"
	"mcorr/internal/manager"
)

// coordSnapshot is the gob wire form of the coordinator's own state: the
// shard topology and the central aggregator (the single float-addition
// path all shard outcomes fold through). Shard managers are saved
// separately — one blob per shard via SaveShard — so checkpointing can
// write them in parallel and recovery can stream them one at a time.
type coordSnapshot struct {
	Version int
	Shards  int
	Agg     []byte
}

const coordSnapshotVersion = 1

// SaveState serializes the coordinator's topology and aggregation state
// (not the shard models; pair ownership is a pure function of the shard
// count, so no pair→shard map is stored).
func (c *Coordinator) SaveState(w io.Writer) error {
	c.mu.Lock()
	n := len(c.shards)
	c.mu.Unlock()
	var buf bytes.Buffer
	if err := c.Aggregator.Save(&buf); err != nil {
		return fmt.Errorf("shard state save: %w", err)
	}
	snap := coordSnapshot{Version: coordSnapshotVersion, Shards: n, Agg: buf.Bytes()}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("shard state save: %w", err)
	}
	return nil
}

// SaveShard serializes shard k's manager (its pair models and config).
func (c *Coordinator) SaveShard(k int, w io.Writer) error {
	c.mu.Lock()
	if k < 0 || k >= len(c.shards) {
		c.mu.Unlock()
		return fmt.Errorf("shard save: index %d out of range [0,%d)", k, len(c.shards))
	}
	s := c.shards[k]
	c.mu.Unlock()
	return s.Save(w)
}

// Load restores a coordinator from a state snapshot written by SaveState
// plus the per-shard blobs written by SaveShard, in shard order. The
// given alarm sink is attached to the central aggregator (nil discards
// alarms); the shard managers never see alarms — they only score.
func Load(state io.Reader, shardBlobs []io.Reader, sink alarm.Sink) (*Coordinator, error) {
	var snap coordSnapshot
	if err := gob.NewDecoder(state).Decode(&snap); err != nil {
		return nil, fmt.Errorf("shard state load: %w", err)
	}
	if snap.Version != coordSnapshotVersion {
		return nil, fmt.Errorf("shard state load: snapshot version %d, want %d", snap.Version, coordSnapshotVersion)
	}
	if snap.Shards < 1 {
		return nil, fmt.Errorf("shard state load: invalid shard count %d", snap.Shards)
	}
	if len(shardBlobs) != snap.Shards {
		return nil, fmt.Errorf("shard state load: %d shard blobs for %d shards", len(shardBlobs), snap.Shards)
	}
	agg, err := manager.LoadAggregator(bytes.NewReader(snap.Agg), sink)
	if err != nil {
		return nil, fmt.Errorf("shard state load: %w", err)
	}
	ids := agg.IDs()
	shards := make([]*manager.Manager, snap.Shards)
	for k, r := range shardBlobs {
		// Shard managers carry no alarm sink: the central aggregator is
		// the only alarm source in a sharded fleet.
		m, err := manager.LoadManager(r, nil)
		if err == nil && !slices.Equal(m.IDs(), ids) {
			// A row is one slice in the coordinator's measurement order,
			// read by every shard.
			m.Close()
			err = fmt.Errorf("measurements differ from the coordinator's")
		}
		if err != nil {
			closeAll(shards)
			return nil, fmt.Errorf("shard %d load: %w", k, err)
		}
		shards[k] = m
	}
	return newCoordinator(agg, agg.Config(), shards), nil
}

package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"mcorr/internal/alarm"
	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// coordHeader is the small gob head of a saved Coordinator: the shard
// topology and the central aggregator (the single float-addition path all
// shard outcomes fold through). One saved Manager per shard follows it, in
// shard order. Pair ownership is a pure function of the shard count, so no
// pair→shard map is stored.
type coordHeader struct {
	Version int
	Shards  int
	Agg     []byte
}

// coordFormat versions the saved-coordinator stream. Version 2 is the
// first to carry the shard managers behind the header.
const coordFormat = 2

// maxShards bounds the shard count a saved coordinator may declare: every
// shard starts a worker pool, so the number must not be a stream's to
// inflate.
const maxShards = 1 << 12

// Save streams the whole fleet to w as records (see wal.RecordWriter; a
// *wal.RecordWriter continues its caller's stream): the header, then every
// shard's Manager.Save in shard order. The step lock is held throughout,
// so the aggregator and every shard are saved between the same two rows.
func (c *Coordinator) Save(w io.Writer) error {
	rw := wal.NewRecordWriter(w)
	c.mu.Lock()
	defer c.mu.Unlock()
	var agg, hdr bytes.Buffer // the aggregator and the header only
	if err := c.Aggregator.Save(&agg); err != nil {
		return fmt.Errorf("shard save: %w", err)
	}
	if err := gob.NewEncoder(&hdr).Encode(coordHeader{Version: coordFormat, Shards: len(c.shards), Agg: agg.Bytes()}); err != nil {
		return fmt.Errorf("shard save: %w", err)
	}
	if err := rw.WriteBlob(hdr.Bytes()); err != nil {
		return fmt.Errorf("shard save: %w", err)
	}
	for k, s := range c.shards {
		if err := s.Save(rw); err != nil {
			return fmt.Errorf("shard %d save: %w", k, err)
		}
	}
	return nil
}

// Load restores a coordinator saved by Save, reading exactly its records
// from r and decoding one shard manager — one model — at a time; shards are
// appended as their bodies arrive, so the declared count allocates nothing.
// The given alarm sink is attached to the central aggregator (nil discards
// alarms); the shard managers never see alarms — they only score. Decode
// failures wrap wal.ErrCorrupt.
func Load(r io.Reader, sink alarm.Sink) (*Coordinator, error) {
	rr := wal.NewRecordReader(r)
	blob, err := rr.ReadBlob()
	if err != nil {
		return nil, fmt.Errorf("shard load: %w", err)
	}
	var hdr coordHeader
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("shard load: header: %v: %w", err, wal.ErrCorrupt)
	}
	if hdr.Version != coordFormat {
		return nil, fmt.Errorf("shard load: stream format %d, want %d: %w", hdr.Version, coordFormat, wal.ErrCorrupt)
	}
	if hdr.Shards < 1 || hdr.Shards > maxShards {
		return nil, fmt.Errorf("shard load: %d shards: %w", hdr.Shards, wal.ErrCorrupt)
	}
	agg, err := manager.LoadAggregator(bytes.NewReader(hdr.Agg), sink)
	if err != nil {
		return nil, fmt.Errorf("shard load: %v: %w", err, wal.ErrCorrupt)
	}
	ids := agg.IDs()
	var shards []*manager.Manager
	for k := 0; k < hdr.Shards; k++ {
		// Shard managers carry no alarm sink: the central aggregator is
		// the only alarm source in a sharded fleet.
		m, err := manager.LoadManager(rr, nil)
		if err == nil {
			shards = append(shards, m)
			err = checkShard(m, k, hdr.Shards, ids)
		}
		if err != nil {
			closeAll(shards)
			return nil, fmt.Errorf("shard %d load: %w", k, err)
		}
	}
	return newCoordinator(agg, agg.Config(), shards), nil
}

// checkShard holds a loaded shard manager to what the coordinator relies
// on: a row is one slice in the coordinator's measurement order, read by
// every shard, and a pair is looked up in the shard rendezvous hashing
// assigns it.
func checkShard(m *manager.Manager, k, n int, ids []timeseries.MeasurementID) error {
	if !slices.Equal(m.IDs(), ids) {
		return fmt.Errorf("measurements differ from the coordinator's: %w", wal.ErrCorrupt)
	}
	for _, p := range m.Pairs() {
		if owner := Assign(p.String(), n); owner != k {
			return fmt.Errorf("holds pair %s, which shard %d of %d owns: %w", p, owner, n, wal.ErrCorrupt)
		}
	}
	return nil
}

package mcorr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcorr/internal/diagnose"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/shard"
	"mcorr/internal/tsdb"
	"mcorr/internal/wal"
)

// Durability surface: the write-ahead log's sync policy, re-exported for
// command-line flags.
type SyncPolicy = wal.SyncPolicy

// Sync policy constants (see the wal package).
const (
	SyncBatch  = wal.SyncBatch
	SyncAlways = wal.SyncAlways
	SyncNone   = wal.SyncNone
)

// ParseSyncPolicy parses the -fsync flag values "batch", "always", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// DurabilityConfig locates and tunes the on-disk state of a durable
// pipeline. Layout under DataDir:
//
//	DataDir/checkpoint             record-stream snapshot (cursor + store + fleet)
//	DataDir/wal/                   segmented write-ahead log of acked samples
//	DataDir/shard-<k>/checkpoint-<epoch>   shard k's model fleet (sharded mode)
//
// A checkpoint file is a magic, then CRC32C-framed numbered records in
// sections (DESIGN.md §10), written and read one record (≤ 1 MiB) at a
// time; any other format is refused with ErrCheckpointFormat.
//
// In sharded mode the root checkpoint holds the coordinator state and an
// epoch number; the per-shard files carrying that epoch hold the models.
// Shard files are written first, the root checkpoint is atomically renamed
// into place last, and stale epochs are garbage-collected afterwards — a
// crash anywhere in the sequence recovers from the previous epoch.
type DurabilityConfig struct {
	// DataDir is the root of the durable state (required).
	DataDir string
	// CheckpointEvery triggers an automatic checkpoint after this many
	// scored rows. If both CheckpointEvery and CheckpointInterval are
	// zero, a default of every 240 rows (one simulated day) applies.
	CheckpointEvery int
	// CheckpointInterval triggers an automatic checkpoint after this much
	// wall time (0 disables the time trigger).
	CheckpointInterval time.Duration
	// Fsync is the WAL sync policy (default SyncBatch).
	Fsync SyncPolicy
	// SegmentBytes is the WAL segment rotation size (default 4 MiB).
	SegmentBytes int64
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.CheckpointEvery == 0 && c.CheckpointInterval == 0 {
		c.CheckpointEvery = 240
	}
	return c
}

func (c DurabilityConfig) checkpointPath() string { return filepath.Join(c.DataDir, "checkpoint") }
func (c DurabilityConfig) walDir() string         { return filepath.Join(c.DataDir, "wal") }

func (c DurabilityConfig) shardDir(k int) string {
	return filepath.Join(c.DataDir, fmt.Sprintf("shard-%d", k))
}

func (c DurabilityConfig) shardCheckpointPath(k int, epoch uint64) string {
	return filepath.Join(c.shardDir(k), fmt.Sprintf("checkpoint-%d", epoch))
}

func (c DurabilityConfig) walOptions() wal.Options {
	return wal.Options{SegmentBytes: c.SegmentBytes, Sync: c.Fsync}
}

// HasCheckpoint reports whether dataDir holds a checkpoint to recover from
// (the OpenDurableMonitor vs NewDurableMonitor decision).
func HasCheckpoint(dataDir string) bool {
	_, err := os.Stat(filepath.Join(dataDir, "checkpoint"))
	return err == nil
}

// DurableMonitor is a Monitor whose state survives crashes: every acked
// sample batch is in the write-ahead log before Ingest returns, and the
// whole pipeline (model fleet, store, scoring cursor) is checkpointed
// atomically on a step/time cadence. After a crash, OpenDurableMonitor
// restores the last checkpoint, replays the WAL tail, and re-scores the
// recovered rows — reproducing the exact fitness trajectory of an
// uninterrupted run (scoring is deterministic).
//
// Flow control composes with durability: rows are scored inline, in time
// order, on the ingesting goroutine, so a slow fleet blocks ingest and
// nothing between the WAL and the scorer ever sheds data — trajectories
// stay bit-identical, including across crash recovery. Overload shedding is
// allowed only at the collector boundary, before a sample is acked into the
// WAL (see CollectorServer.SetFlow).
type DurableMonitor struct {
	mu      sync.Mutex
	mon     *Monitor
	log     *wal.Log
	cfg     DurabilityConfig
	cadence manager.Cadence
	rows    int    // cumulative scored rows, the cadence's progress counter
	epoch   uint64 // last committed sharded-checkpoint epoch
	closed  bool

	replayApplied int
	replaySkipped int
}

// NewDurableMonitor trains a monitor on history (exactly like NewMonitor)
// and makes it durable under cfg.DataDir: a WAL is attached to the store
// and an initial checkpoint of the freshly trained fleet is written before
// returning, so even an immediate crash recovers to the trained state.
func NewDurableMonitor(history *Dataset, mcfg ManagerConfig, cfg DurabilityConfig, opts ...MonitorOption) (*DurableMonitor, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("durable monitor: DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("durable monitor: %w", err)
	}
	mon, err := NewMonitor(history, mcfg, opts...)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(cfg.walDir(), cfg.walOptions())
	if err != nil {
		mon.fleet.Close()
		return nil, err
	}
	mon.store.AttachWAL(log)
	d := &DurableMonitor{mon: mon, log: log, cfg: cfg,
		cadence: manager.Cadence{EverySteps: cfg.CheckpointEvery, Interval: cfg.CheckpointInterval}}
	if err := d.checkpointLocked(); err != nil {
		log.Close()
		mon.fleet.Close()
		return nil, err
	}
	return d, nil
}

// OpenDurableMonitor recovers a durable monitor from cfg.DataDir: it loads
// the latest checkpoint, replays WAL records past the checkpoint's
// sequence number into the store, re-scores every recovered row, and
// returns the reports of those re-scored rows (the post-crash replay of
// the fitness trajectory). A missing checkpoint is manager.ErrNoCheckpoint
// — cold-start with NewDurableMonitor instead.
func OpenDurableMonitor(cfg DurabilityConfig, sink AlarmSink, opts ...MonitorOption) (*DurableMonitor, []StepReport, error) {
	cfg = cfg.withDefaults()
	var o monitorOptions
	for _, opt := range opts {
		opt(&o) // shard count comes from the checkpoint; WithShards is ignored here
	}
	var diag *DiagnosisEngine
	if o.diagnosis != nil {
		// The engine and its sink wrapper exist before the fleet so the
		// replayed rows' alarms flow through it, and its checkpointed
		// state is restored before any row replays — the replay then
		// continues the incident state machine exactly where the
		// pre-crash run left it (same IDs, same rankings).
		diag = diagnose.NewEngine(*o.diagnosis)
		sink = diag.WrapSink(sink)
	}
	ck := &checkpointState{}
	cr, err := manager.OpenCheckpointFile(cfg.checkpointPath(), &ck.meta)
	if err != nil {
		return nil, nil, err
	}
	err = ck.decode(cr, cfg, sink)
	cr.Close()
	if err != nil {
		return nil, nil, err
	}
	fleet, store := ck.fleet, ck.store
	if o.discovery != nil {
		// The discovery wrapper goes on before diagnosis attaches so the
		// topology API sees the discovery views, and before replay so the
		// re-scored rows drive the sketches (and any round boundaries)
		// exactly like the pre-crash run.
		df, derr := wrapRecoveredFleet(fleet, *o.discovery, ck.discover)
		if derr != nil {
			fleet.Close()
			return nil, nil, fmt.Errorf("recover discovery: %w", derr)
		}
		fleet = df
	}
	var api *diagnose.API
	if diag != nil {
		if len(ck.diagnose) > 0 {
			if err := diag.UnmarshalState(ck.diagnose); err != nil {
				fleet.Close()
				return nil, nil, fmt.Errorf("recover diagnosis: %w", err)
			}
		}
		api = wireDiagnosis(diag, fleet)
		if !o.tenantOwned {
			obs.RegisterOpsHandler("/api/v1/", api)
		}
	}
	applied, skipped, err := store.ReplayWAL(cfg.walDir(), ck.meta.WALSeq)
	if err != nil {
		fleet.Close()
		return nil, nil, err
	}
	log, err := wal.Open(cfg.walDir(), cfg.walOptions())
	if err != nil {
		fleet.Close()
		return nil, nil, err
	}
	store.AttachWAL(log)
	mon := newMonitor(store, fleet, ck.meta.Cursor, diag, api)
	d := &DurableMonitor{mon: mon, log: log, cfg: cfg, epoch: ck.meta.Epoch,
		cadence:       manager.Cadence{EverySteps: cfg.CheckpointEvery, Interval: cfg.CheckpointInterval},
		replayApplied: applied, replaySkipped: skipped}
	manager.RecordCheckpointEpoch(ck.meta.Epoch)

	// Re-score everything the store holds beyond the checkpoint cursor.
	// WAL records are whole ingest batches (CRC-framed, torn tails
	// dropped), so the store only ever recovers complete rows; forcing
	// the flush here replays Manager.Step in the original order and
	// reproduces the pre-crash trajectory bit for bit.
	var last time.Time
	for _, id := range mon.ids {
		if t, ok := store.LastTime(id); ok && t.After(last) {
			last = t
		}
	}
	var recovered []StepReport
	if !last.IsZero() && !last.Before(mon.cursor) {
		recovered = mon.FlushUpTo(last.Add(mon.step))
	}
	d.rows = len(recovered)
	return d, recovered, nil
}

// checkpointState is a decoded pipeline checkpoint: the store and the
// scoring fleet, live, and the diagnosis and discovery blobs still to be
// installed into their engines.
type checkpointState struct {
	meta     manager.CheckpointMeta
	store    *Store
	fleet    Fleet
	diagnose []byte
	discover []byte
}

// readStoreSection decodes the store section, which follows meta in every
// pipeline and store-only checkpoint.
func readStoreSection(cr *manager.CheckpointReader) (*Store, error) {
	body, err := cr.Section(manager.SectionStore)
	if err != nil {
		return nil, err
	}
	store, err := tsdb.Restore(body)
	if err != nil {
		return nil, manager.CorruptCheckpoint(manager.SectionStore, err)
	}
	return store, nil
}

// decode reads the sections after meta in file order, straight from the
// open stream: the store, the small engine blobs, then the fleet one model
// at a time (sharded: from the shard files the coord section points at).
// It yields a whole state or a typed error (ErrCheckpointCorrupt) — never
// a fleet with fewer pairs than were saved.
func (st *checkpointState) decode(cr *manager.CheckpointReader, cfg DurabilityConfig, sink AlarmSink) (err error) {
	if st.store, err = readStoreSection(cr); err != nil {
		return err
	}
	if st.diagnose, err = cr.Blob(manager.SectionDiagnose); err != nil {
		return err
	}
	if st.discover, err = cr.Blob(manager.SectionDiscover); err != nil {
		return err
	}
	coordState, err := cr.Blob(manager.SectionCoord)
	if err != nil {
		return err
	}
	if st.meta.Shards > 0 {
		coord, err := recoverShards(cfg, st.meta, coordState, sink)
		if err != nil {
			return manager.CorruptCheckpoint(manager.SectionCoord, err)
		}
		st.fleet = coord
	} else {
		body, err := cr.Section(manager.SectionManager)
		if err != nil {
			return err
		}
		mgr, err := manager.LoadManager(body, sink)
		if err != nil {
			return manager.CorruptCheckpoint(manager.SectionManager, err)
		}
		st.fleet = mgr
	}
	if err = cr.End(); err != nil {
		st.fleet.Close()
		st.fleet = nil
	}
	return err
}

// recoverShards restores a sharded fleet: the coordinator state from the
// root checkpoint's coord blob plus the manager section of every
// shard-<k>/checkpoint-<epoch> file, each streamed one model at a time.
func recoverShards(cfg DurabilityConfig, meta manager.CheckpointMeta, coordState []byte, sink AlarmSink) (*ShardCoordinator, error) {
	readers := make([]*manager.CheckpointReader, meta.Shards)
	bodies := make([]io.Reader, meta.Shards)
	for k := range readers {
		cr, err := manager.OpenCheckpointFile(cfg.shardCheckpointPath(k, meta.Epoch), &manager.CheckpointMeta{})
		if err != nil {
			return nil, fmt.Errorf("recover shard %d (epoch %d): %w", k, meta.Epoch, err)
		}
		defer cr.Close()
		if bodies[k], err = cr.Section(manager.SectionManager); err != nil {
			return nil, fmt.Errorf("recover shard %d (epoch %d): %w", k, meta.Epoch, err)
		}
		readers[k] = cr
	}
	coord, err := shard.Load(bytes.NewReader(coordState), bodies, sink)
	if err != nil {
		return nil, fmt.Errorf("recover sharded fleet: %w", err)
	}
	for k, cr := range readers {
		if err := cr.End(); err != nil {
			coord.Close()
			return nil, fmt.Errorf("recover shard %d (epoch %d): %w", k, meta.Epoch, err)
		}
	}
	return coord, nil
}

// Monitor exposes the underlying monitor.
func (d *DurableMonitor) Monitor() *Monitor { return d.mon }

// Fleet exposes the scoring fleet (a *Manager or a *ShardCoordinator).
func (d *DurableMonitor) Fleet() Fleet { return d.mon.Fleet() }

// Manager exposes the underlying model fleet when unsharded; nil for a
// sharded monitor (use Fleet or Coordinator).
func (d *DurableMonitor) Manager() *Manager { return d.mon.Manager() }

// Coordinator exposes the sharded fabric, or nil when unsharded.
func (d *DurableMonitor) Coordinator() *ShardCoordinator { return d.mon.Coordinator() }

// Diagnosis exposes the incident diagnosis engine, or nil when built
// without WithDiagnosis.
func (d *DurableMonitor) Diagnosis() *DiagnosisEngine { return d.mon.Diagnosis() }

// Reshard repartitions a sharded durable monitor across n shards and
// immediately checkpoints the new topology (the checkpoint-split): the
// new epoch's shard files are written before the root checkpoint flips,
// so a crash during resharding recovers the old topology and a crash
// after it recovers the new one — never a mix.
func (d *DurableMonitor) Reshard(n int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, fmt.Errorf("durable monitor: closed")
	}
	moved, err := d.mon.Reshard(n)
	if err != nil {
		return 0, err
	}
	return moved, d.checkpointLocked()
}

// Cursor returns the timestamp of the next row to be scored — after
// recovery, the point a feeder should resume streaming from.
func (d *DurableMonitor) Cursor() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mon.cursor
}

// RecoveryStats reports how many WAL samples the last OpenDurableMonitor
// applied and skipped (zero for a fresh NewDurableMonitor).
func (d *DurableMonitor) RecoveryStats() (applied, skipped int) {
	return d.replayApplied, d.replaySkipped
}

// Ingest stores and scores samples exactly like Monitor.Ingest, with two
// durability guarantees layered on: the applied samples are in the WAL
// before Ingest returns, and a checkpoint is written automatically
// whenever the configured cadence comes due.
func (d *DurableMonitor) Ingest(samples ...Sample) ([]StepReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("durable monitor: closed")
	}
	reports, err := d.mon.Ingest(samples...)
	if err != nil {
		return reports, err
	}
	return reports, d.afterScoreLocked(len(reports))
}

// FlushUpTo forces scoring of all rows before deadline (gaps reset the
// affected links), then applies the checkpoint cadence.
func (d *DurableMonitor) FlushUpTo(deadline time.Time) ([]StepReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("durable monitor: closed")
	}
	reports := d.mon.FlushUpTo(deadline)
	return reports, d.afterScoreLocked(len(reports))
}

func (d *DurableMonitor) afterScoreLocked(scored int) error {
	d.rows += scored
	if !d.cadence.Due(d.rows, time.Now()) {
		return nil
	}
	return d.checkpointLocked()
}

// Checkpoint forces an immediate checkpoint regardless of cadence.
func (d *DurableMonitor) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("durable monitor: closed")
	}
	return d.checkpointLocked()
}

// checkpointLocked snapshots manager + store + cursor atomically and then
// drops WAL segments the snapshot has made redundant. The WAL sequence is
// read before the snapshots: every record with Seq <= WALSeq is already
// applied to the store, so the snapshot covers it and truncation is safe;
// anything appended concurrently gets Seq > WALSeq and stays replayable
// (replay is idempotent, so overlap is harmless).
func (d *DurableMonitor) checkpointLocked() error {
	seq := d.log.LastSeq()
	// Every checkpoint advances the epoch (in the sharded layout it also
	// versions the per-shard files); the committed value lands on the
	// mcorr_checkpoint_epoch gauge below.
	epoch := d.epoch + 1
	meta := manager.CheckpointMeta{
		CreatedAt: time.Now(),
		Cursor:    d.mon.cursor,
		WALSeq:    seq,
		Steps:     d.mon.fleet.Steps(),
		Epoch:     epoch,
	}
	coord := d.mon.Coordinator()
	if coord != nil {
		// Sharded layout: per-shard model files carry the next epoch; they
		// are all durable before the root checkpoint (written last, below)
		// makes that epoch authoritative.
		meta.Shards = coord.NumShards()
		for k := 0; k < meta.Shards; k++ {
			if err := os.MkdirAll(d.cfg.shardDir(k), 0o755); err != nil {
				return fmt.Errorf("checkpoint shard %d: %w", k, err)
			}
			smeta := manager.CheckpointMeta{CreatedAt: meta.CreatedAt, Shards: meta.Shards, Epoch: epoch}
			if err := manager.WriteCheckpointFile(d.cfg.shardCheckpointPath(k, epoch), &smeta, func(cw *manager.CheckpointWriter) error {
				return cw.Stream(manager.SectionManager, func(w io.Writer) error { return coord.SaveShard(k, w) })
			}); err != nil {
				return fmt.Errorf("checkpoint shard %d: %w", k, err)
			}
		}
	}
	// The store and the fleet stream straight into the file, one record at
	// a time; only the small engine states pass through a blob (empty when
	// the engine is absent).
	var diagnose, discover, coordState []byte
	var err error
	if d.mon.diag != nil {
		if diagnose, err = d.mon.diag.MarshalState(); err != nil {
			return fmt.Errorf("checkpoint diagnosis: %w", err)
		}
	}
	if df, ok := d.mon.fleet.(*discoveryFleet); ok {
		if discover, err = df.MarshalDiscoveryState(); err != nil {
			return fmt.Errorf("checkpoint discovery: %w", err)
		}
	}
	if coord != nil {
		var cbuf bytes.Buffer // topology + aggregator accumulators only
		if err := coord.SaveState(&cbuf); err != nil {
			return fmt.Errorf("checkpoint coordinator: %w", err)
		}
		coordState = cbuf.Bytes()
	}
	if err := manager.WriteCheckpointFile(d.cfg.checkpointPath(), &meta, func(cw *manager.CheckpointWriter) error {
		err := cw.Stream(manager.SectionStore, d.mon.store.Snapshot)
		if err == nil {
			err = cw.Blob(manager.SectionDiagnose, diagnose)
		}
		if err == nil {
			err = cw.Blob(manager.SectionDiscover, discover)
		}
		if err == nil {
			err = cw.Blob(manager.SectionCoord, coordState)
		}
		if err == nil && coord == nil {
			err = cw.Stream(manager.SectionManager, d.mon.Manager().Save)
		}
		return err
	}); err != nil {
		return err
	}
	d.epoch = epoch
	manager.RecordCheckpointEpoch(epoch)
	d.cadence.Mark(d.rows, time.Now())
	if err := d.log.TruncateBefore(seq); err != nil {
		return fmt.Errorf("wal retention: %w", err)
	}
	if meta.Shards > 0 {
		d.gcShardEpochs(meta.Shards, epoch)
	}
	return nil
}

// gcShardEpochs removes per-shard checkpoint files from superseded epochs
// and shard directories beyond the current shard count (left behind when
// a reshard shrank the fleet). Best-effort: the authoritative state is
// the root checkpoint, and stale files are harmless until the next GC.
func (d *DurableMonitor) gcShardEpochs(shards int, epoch uint64) {
	keep := fmt.Sprintf("checkpoint-%d", epoch)
	dirs, err := filepath.Glob(filepath.Join(d.cfg.DataDir, "shard-*"))
	if err != nil {
		return
	}
	for _, dir := range dirs {
		var k int
		if _, err := fmt.Sscanf(filepath.Base(dir), "shard-%d", &k); err != nil {
			continue
		}
		if k >= shards {
			os.RemoveAll(dir)
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.Name() != keep {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// Close writes a final checkpoint and releases the WAL and the manager's
// worker pool. A monitor closed cleanly recovers instantly (empty WAL
// tail).
func (d *DurableMonitor) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.checkpointLocked()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	d.mon.fleet.Close()
	return err
}

// OpenDurableStore opens (or recovers) a standalone WAL-backed store under
// dataDir — the collector-side durability primitive, with no manager
// attached. If a checkpoint exists the store is restored from it first;
// then the WAL tail is replayed, and a fresh WAL is attached so subsequent
// appends are logged before they are acked. It returns the store and the
// number of samples replayed from the WAL.
func OpenDurableStore(dataDir string, step time.Duration, retention int, policy SyncPolicy) (*Store, int, error) {
	cfg := DurabilityConfig{DataDir: dataDir, Fsync: policy}
	if err := os.MkdirAll(cfg.walDir(), 0o755); err != nil {
		return nil, 0, fmt.Errorf("durable store: %w", err)
	}
	var (
		store *Store
		after uint64
	)
	var meta manager.CheckpointMeta
	cr, err := manager.OpenCheckpointFile(cfg.checkpointPath(), &meta)
	switch {
	case err == nil:
		// The store section comes first: reading stops before any models.
		store, err = readStoreSection(cr)
		cr.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("durable store recover: %w", err)
		}
		after = meta.WALSeq
	case errors.Is(err, manager.ErrNoCheckpoint):
		store, err = tsdb.NewStore(step, retention)
		if err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, err
	}
	applied, _, err := store.ReplayWAL(cfg.walDir(), after)
	if err != nil {
		return nil, 0, err
	}
	log, err := wal.Open(cfg.walDir(), cfg.walOptions())
	if err != nil {
		return nil, 0, err
	}
	store.AttachWAL(log)
	return store, applied, nil
}

// CheckpointStore writes a store-only checkpoint (no fleet section) for a
// store opened with OpenDurableStore and truncates the WAL segments the
// snapshot covers. Safe to call while appends are in flight: the sequence
// is read before the snapshot, so concurrent appends stay replayable.
func CheckpointStore(dataDir string, s *Store) error {
	log := s.WAL()
	if log == nil {
		return fmt.Errorf("durable store checkpoint: store has no WAL attached")
	}
	seq := log.LastSeq()
	meta := manager.CheckpointMeta{CreatedAt: time.Now(), WALSeq: seq}
	cfg := DurabilityConfig{DataDir: dataDir}
	if err := manager.WriteCheckpointFile(cfg.checkpointPath(), &meta, func(cw *manager.CheckpointWriter) error {
		return cw.Stream(manager.SectionStore, s.Snapshot)
	}); err != nil {
		return fmt.Errorf("durable store checkpoint: %w", err)
	}
	if err := log.TruncateBefore(seq); err != nil {
		return fmt.Errorf("durable store wal retention: %w", err)
	}
	return nil
}

// CloseDurableStore detaches and closes the store's WAL (final sync
// included). The store itself stays usable in memory.
func CloseDurableStore(s *Store) error {
	log := s.WAL()
	if log == nil {
		return nil
	}
	return log.Close()
}

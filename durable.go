package mcorr

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mcorr/internal/manager"
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
}

func (c DurabilityConfig) checkpointPath() string { return filepath.Join(c.DataDir, "checkpoint") }
func (c DurabilityConfig) walDir() string         { return filepath.Join(c.DataDir, "wal") }

func (c DurabilityConfig) shardDir(k int) string {
	return filepath.Join(c.DataDir, fmt.Sprintf("shard-%d", k))
}

func (c DurabilityConfig) shardCheckpointPath(k int, epoch uint64) string {
	return filepath.Join(c.shardDir(k), fmt.Sprintf("checkpoint-%d", epoch))
}

// HasCheckpoint reports whether dataDir holds a checkpoint to recover from
// (the OpenDurableMonitor vs NewDurableMonitor decision).
func HasCheckpoint(dataDir string) bool {
	_, err := os.Stat(filepath.Join(dataDir, "checkpoint"))
	return err == nil
}

// NewDurableMonitor trains a monitor on history (exactly like NewMonitor)
// and makes it durable under cfg.DataDir: a WAL is attached to the store
// and an initial checkpoint of the freshly trained fleet is written before
// returning, so even an immediate crash recovers to the trained state.
func NewDurableMonitor(history *Dataset, mcfg ManagerConfig, cfg DurabilityConfig, opts ...MonitorOption) (*Monitor, error) {
	m, _, err := assemble(history, mcfg, &cfg, opts)
	return m, err
}

// OpenDurableMonitor recovers a durable monitor from cfg.DataDir: it loads
// the latest checkpoint, replays WAL records past the checkpoint's
// sequence number into the store, re-scores every recovered row, and
// returns the reports of those re-scored rows (the post-crash replay of
// the fitness trajectory). The shard count comes from the checkpoint;
// WithShards is ignored here. A missing checkpoint is
// manager.ErrNoCheckpoint — cold-start with NewDurableMonitor instead.
func OpenDurableMonitor(cfg DurabilityConfig, sink AlarmSink, opts ...MonitorOption) (*Monitor, []StepReport, error) {
	return assemble(nil, ManagerConfig{Sink: sink}, &cfg, opts)
}

// pipelineState is what a pipeline starts from, trained (train) or decoded
// from a checkpoint (load): the store and the scoring fleet, live, the cursor
// in meta, and — decoded only — the diagnosis and discovery blobs still to
// be installed into their engines.
type pipelineState struct {
	meta     manager.CheckpointMeta
	store    *Store
	fleet    Fleet
	diagnose []byte
	discover []byte
}

// load fills st from cfg's checkpoint. With WithDiscovery the fleet comes
// back behind its wrapper — on before diagnosis attaches, so the topology
// API sees the discovery views, and before replay, so the re-scored rows
// drive the sketches (and any round boundaries) exactly like the pre-crash
// run.
func (st *pipelineState) load(cfg DurabilityConfig, sink AlarmSink, o monitorOptions) error {
	cr, err := manager.OpenCheckpointFile(cfg.checkpointPath(), &st.meta)
	if err != nil {
		return err
	}
	err = st.decode(cr, cfg, sink)
	cr.Close()
	if err != nil || o.discovery == nil {
		return err
	}
	df, err := wrapRecoveredFleet(st.fleet, *o.discovery, st.discover)
	if err != nil {
		st.fleet.Close()
		return fmt.Errorf("recover discovery: %w", err)
	}
	st.fleet = df
	return nil
}

// readStoreSection decodes the store section, which follows meta in every
// pipeline checkpoint.
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
func (st *pipelineState) decode(cr *manager.CheckpointReader, cfg DurabilityConfig, sink AlarmSink) (err error) {
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

// checkpointLocked snapshots manager + store + cursor atomically and then
// drops WAL segments the snapshot has made redundant; in memory it is a
// no-op. The WAL sequence is read before the snapshots: every record with
// Seq <= WALSeq is already applied to the store, so the snapshot covers it
// and truncation is safe; anything appended concurrently gets Seq > WALSeq
// and stays replayable (replay is idempotent, so overlap is harmless).
func (m *Monitor) checkpointLocked() error {
	if !m.durable() {
		return nil
	}
	seq := m.log.LastSeq()
	// Every checkpoint advances the epoch (in the sharded layout it also
	// versions the per-shard files); the committed value lands on the
	// mcorr_checkpoint_epoch gauge below.
	epoch := m.epoch + 1
	meta := manager.CheckpointMeta{
		CreatedAt: time.Now(),
		Cursor:    m.cursor,
		WALSeq:    seq,
		Steps:     m.fleet.Steps(),
		Epoch:     epoch,
	}
	coord := m.Coordinator()
	if coord != nil {
		// Sharded layout: per-shard model files carry the next epoch; they
		// are all durable before the root checkpoint (written last, below)
		// makes that epoch authoritative.
		meta.Shards = coord.NumShards()
		for k := 0; k < meta.Shards; k++ {
			if err := os.MkdirAll(m.cfg.shardDir(k), 0o755); err != nil {
				return fmt.Errorf("checkpoint shard %d: %w", k, err)
			}
			smeta := manager.CheckpointMeta{CreatedAt: meta.CreatedAt, Shards: meta.Shards, Epoch: epoch}
			if err := manager.WriteCheckpointFile(m.cfg.shardCheckpointPath(k, epoch), &smeta, func(cw *manager.CheckpointWriter) error {
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
	if m.diag != nil {
		if diagnose, err = m.diag.MarshalState(); err != nil {
			return fmt.Errorf("checkpoint diagnosis: %w", err)
		}
	}
	if df, ok := m.fleet.(*discoveryFleet); ok {
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
	if err := manager.WriteCheckpointFile(m.cfg.checkpointPath(), &meta, func(cw *manager.CheckpointWriter) error {
		err := cw.Stream(manager.SectionStore, m.store.Snapshot)
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
			err = cw.Stream(manager.SectionManager, m.Manager().Save)
		}
		return err
	}); err != nil {
		return err
	}
	m.epoch = epoch
	manager.RecordCheckpointEpoch(epoch)
	m.cadence.Mark(m.scored, time.Now())
	if err := m.log.TruncateBefore(seq); err != nil {
		return fmt.Errorf("wal retention: %w", err)
	}
	if meta.Shards > 0 {
		m.gcShardEpochs(meta.Shards, epoch)
	}
	return nil
}

// gcShardEpochs removes per-shard checkpoint files from superseded epochs
// and shard directories beyond the current shard count (left behind when
// a reshard shrank the fleet). Best-effort: the authoritative state is
// the root checkpoint, and stale files are harmless until the next GC.
func (m *Monitor) gcShardEpochs(shards int, epoch uint64) {
	keep := fmt.Sprintf("checkpoint-%d", epoch)
	dirs, err := filepath.Glob(filepath.Join(m.cfg.DataDir, "shard-*"))
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

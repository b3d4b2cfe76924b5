package mcorr

import (
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
// pipeline. Layout under DataDir, the same for every fleet shape:
//
//	DataDir/checkpoint   record-stream snapshot (cursor + store + fleet)
//	DataDir/wal/         segmented write-ahead log of acked samples
//
// The checkpoint file is a magic, then CRC32C-framed numbered records in
// sections (DESIGN.md §10), written and read one record (≤ 1 MiB) at a
// time; any other format is refused with ErrCheckpointFormat. It holds the
// whole pipeline — a sharded fleet's models included, shard after shard —
// and is replaced by one atomic rename, so a crash at any point of a
// checkpoint recovers from the previous one.
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
	err = st.decode(cr, sink)
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
// at a time — a Manager, or as many shard managers as meta.Shards says. It
// is a function of the stream alone and yields a whole state or a typed
// error (ErrCheckpointCorrupt) — never a fleet with fewer pairs than were
// saved.
func (st *pipelineState) decode(cr *manager.CheckpointReader, sink AlarmSink) (err error) {
	if st.store, err = readStoreSection(cr); err != nil {
		return err
	}
	if st.diagnose, err = cr.Blob(manager.SectionDiagnose); err != nil {
		return err
	}
	if st.discover, err = cr.Blob(manager.SectionDiscover); err != nil {
		return err
	}
	body, err := cr.Section(manager.SectionManager)
	if err != nil {
		return err
	}
	if st.meta.Shards > 0 {
		coord, err := shard.Load(body, sink)
		if err == nil {
			if n := coord.NumShards(); n != st.meta.Shards {
				coord.Close()
				err = fmt.Errorf("%d shards where meta declares %d", n, st.meta.Shards)
			}
		}
		if err != nil {
			return manager.CorruptCheckpoint(manager.SectionManager, err)
		}
		st.fleet = coord
	} else {
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
	// Every checkpoint advances the epoch; the committed value lands on the
	// mcorr_checkpoint_epoch gauge below.
	epoch := m.epoch + 1
	meta := manager.CheckpointMeta{
		CreatedAt: time.Now(),
		Cursor:    m.cursor,
		WALSeq:    seq,
		Steps:     m.fleet.Steps(),
		Epoch:     epoch,
	}
	var saveFleet func(io.Writer) error
	if coord := m.Coordinator(); coord != nil {
		meta.Shards = coord.NumShards()
		saveFleet = coord.Save
	} else {
		saveFleet = m.Manager().Save
	}
	// The store and the fleet stream straight into the file, one record at
	// a time; only the small engine states pass through a blob (empty when
	// the engine is absent).
	var diagnose, discover []byte
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
	if err := manager.WriteCheckpointFile(m.cfg.checkpointPath(), &meta, func(cw *manager.CheckpointWriter) error {
		err := cw.Stream(manager.SectionStore, m.store.Snapshot)
		if err == nil {
			err = cw.Blob(manager.SectionDiagnose, diagnose)
		}
		if err == nil {
			err = cw.Blob(manager.SectionDiscover, discover)
		}
		if err == nil {
			err = cw.Stream(manager.SectionManager, saveFleet)
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
	return nil
}

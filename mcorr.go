package mcorr

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/collector"
	"mcorr/internal/core"
	"mcorr/internal/diagnose"
	"mcorr/internal/manager"
	"mcorr/internal/mathx"
	"mcorr/internal/obs"
	"mcorr/internal/shardnet"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
	"mcorr/internal/wal"
)

// Core model surface.
type (
	// Point is one joint observation of a measurement pair.
	Point = mathx.Point2
	// ModelConfig configures a pairwise model (see core.Config).
	ModelConfig = core.Config
	// Model is the paper's pairwise correlation model M = (G, V).
	Model = core.Model
	// StepResult is the outcome of scoring one observation.
	StepResult = core.StepResult
	// Explanation is the model's human-readable account of one
	// observation: the paper's "problematic measurement ranges".
	Explanation = core.Explanation
	// CellInfo is one grid cell as measurement-value ranges.
	CellInfo = core.CellInfo
	// ModelDiagnostics summarizes a model's internal state.
	ModelDiagnostics = core.Diagnostics
	// GridConfig controls the adaptive discretization.
	GridConfig = core.GridConfig
	// Grid is the discretized measurement space.
	Grid = core.Grid
	// KernelKind selects the spatial-closeness kernel.
	KernelKind = core.KernelKind
	// UpdateRule selects the matrix update rule.
	UpdateRule = core.UpdateRule
)

// Kernel and update-rule constants (see the core package).
const (
	KernelHarmonic = core.KernelHarmonic
	KernelProduct  = core.KernelProduct
	KernelUniform  = core.KernelUniform

	UpdateKernelBayes = core.UpdateKernelBayes
	UpdateDirichlet   = core.UpdateDirichlet
)

// TrainModel builds a pairwise model from history points.
func TrainModel(history []Point, cfg ModelConfig) (*Model, error) {
	return core.Train(history, cfg)
}

// FitnessFromRow computes the paper's rank-based fitness score
// Q = 1 − (π(c_h) − 1)/s for a transition distribution row and the cell h
// the observation landed in.
func FitnessFromRow(row []float64, h int) float64 { return core.FitnessFromRow(row, h) }

// RankInRow returns the paper's ranking function π(c_h): the 1-based rank
// of cell h by decreasing probability (ties broken by index).
func RankInRow(row []float64, h int) int { return core.RankInRow(row, h) }

// Time-series surface.
type (
	// MeasurementID names a metric on a machine.
	MeasurementID = timeseries.MeasurementID
	// Series is one measurement's regular time series.
	Series = timeseries.Series
	// Dataset is a set of measurements on a shared grid.
	Dataset = timeseries.Dataset
	// Sample is one observation flowing through the pipeline.
	Sample = tsdb.Sample
	// Store is the in-memory time-series database.
	Store = tsdb.Store
)

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return timeseries.NewDataset() }

// NewSeries allocates an empty series.
func NewSeries(id MeasurementID, start time.Time, step time.Duration) (*Series, error) {
	return timeseries.NewSeries(id, start, step)
}

// NewStore returns an in-memory time-series store.
func NewStore(step time.Duration, retention int) (*Store, error) {
	return tsdb.NewStore(step, retention)
}

// Manager surface.
type (
	// ManagerConfig configures the model fleet.
	ManagerConfig = manager.Config
	// Manager owns one model per measurement pair.
	Manager = manager.Manager
	// Row is one synchronized observation of all measurements.
	Row = manager.Row
	// StepReport is the fleet's per-sample scoring output.
	StepReport = manager.StepReport
	// Pair is an unordered measurement pair.
	Pair = manager.Pair
	// Localization ranks machines by average fitness.
	Localization = manager.Localization
	// ShardNetCoordinator is the networked scoring fabric: the pair graph
	// partitioned across worker processes, one coordinator-dialled
	// control connection each, the workers' outcomes read back on it as
	// native frames and merged by the same central aggregator (see
	// NewShardNetFleet).
	ShardNetCoordinator = shardnet.Coordinator
	// ShardNetConfig configures the networked fabric.
	ShardNetConfig = shardnet.Config
	// ShardNetWorkerConfig configures one networked shard worker process.
	ShardNetWorkerConfig = shardnet.WorkerConfig
	// ShardNetWorker is a networked shard scoring worker (see mcshard).
	ShardNetWorker = shardnet.Worker
)

// NewShardNetFleet trains the pair graph, partitions it across the
// configured worker processes by rendezvous hashing, dials each worker and
// ships it its models, and returns the coordinator. Only the workers
// listen. The merged Q^a/Q trajectory is bit-identical to one Manager's for
// any worker count.
func NewShardNetFleet(history *Dataset, cfg ShardNetConfig) (*ShardNetCoordinator, error) {
	return shardnet.New(history, cfg)
}

// ListenShardNetWorker binds a networked shard worker to addr (":0"
// picks a free port). Call Serve on the result to accept coordinator
// sessions; see cmd/mcshard for the standalone binary.
func ListenShardNetWorker(addr string, cfg ShardNetWorkerConfig) (*ShardNetWorker, error) {
	return shardnet.ListenWorker(addr, cfg)
}

// Fleet is the scoring surface shared by the Manager and the networked
// ShardNetCoordinator: everything a monitor needs to score rows, read the
// three-level fitness state, and localize problems. Each embeds its
// *manager.Aggregator, whose methods are the read half of this interface;
// both produce bit-identical trajectories over the same rows.
type Fleet interface {
	// Step scores one synchronized map row across every trained link
	// (manager.MapRows): the row is converted once into the dense slice
	// that StepValues scores.
	Step(Row) StepReport
	// StepValues scores the row whose i-th value is IDs()[i]'s, NaN for a
	// gap. vals stays the caller's: the fleet reads it until the call
	// returns and keeps no reference.
	StepValues(t time.Time, vals []float64) StepReport
	// IDs returns the monitored measurements.
	IDs() []MeasurementID
	// Pairs returns every trained link in canonical order.
	Pairs() []Pair
	// Steps counts rows that produced a system score.
	Steps() int
	// SystemMean is the running mean system fitness Q.
	SystemMean() float64
	// MeasurementMeans is the running mean Q^a per measurement.
	MeasurementMeans() map[MeasurementID]float64
	// Localize ranks machines by mean fitness, worst first.
	Localize() Localization
	// ResetAccumulators clears the running means.
	ResetAccumulators()
	// Close releases what the fleet holds beyond memory: a networked
	// fleet's worker connections (a Manager's scoring helpers belong to
	// the process and outlive it).
	Close()
}

// Compile-time proof that both fleet shapes satisfy the interface.
var (
	_ Fleet = (*Manager)(nil)
	_ Fleet = (*ShardNetCoordinator)(nil)
)

// NewManager trains one model per pair of measurements in history.
func NewManager(history *Dataset, cfg ManagerConfig) (*Manager, error) {
	return manager.New(history, cfg)
}

// LoadModel restores a pairwise model saved with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// LoadManager restores a manager (and every trained pair model) saved
// with Manager.Save, attaching the given alarm sink (nil discards).
func LoadManager(r io.Reader, sink AlarmSink) (*Manager, error) {
	return manager.LoadManager(r, sink)
}

// Alarm surface.
type (
	// Alarm is one problem notification.
	Alarm = alarm.Alarm
	// AlarmSink consumes alarms.
	AlarmSink = alarm.Sink
	// MemorySink records alarms in memory.
	MemorySink = alarm.MemorySink
	// ChannelSink forwards alarms to a channel.
	ChannelSink = alarm.ChannelSink
)

// Alarm severity and scope constants.
const (
	SeverityInfo     = alarm.SeverityInfo
	SeverityWarning  = alarm.SeverityWarning
	SeverityCritical = alarm.SeverityCritical

	ScopePair        = alarm.ScopePair
	ScopeMeasurement = alarm.ScopeMeasurement
	ScopeSystem      = alarm.ScopeSystem
)

// NewChannelSink returns an alarm sink backed by a buffered channel.
func NewChannelSink(capacity int) *ChannelSink { return alarm.NewChannelSink(capacity) }

// NewDeduper wraps a sink with a holdoff window per alarm key.
func NewDeduper(next AlarmSink, holdoff time.Duration) AlarmSink {
	return alarm.NewDeduper(next, holdoff)
}

// Collector surface.
type (
	// CollectorServer receives agent sample streams over TCP.
	CollectorServer = collector.Server
	// CollectorAgent ships samples from one machine.
	CollectorAgent = collector.Agent
	// ReliableAgent is a collector agent with reconnection, backoff and
	// a bounded resend buffer.
	ReliableAgent = collector.ReliableAgent
	// ReliableConfig tunes a ReliableAgent.
	ReliableConfig = collector.ReliableConfig
)

// NewReliableAgent returns an agent that reconnects with backoff and
// buffers samples across outages.
func NewReliableAgent(addr, name string, cfg ReliableConfig) *ReliableAgent {
	return collector.NewReliableAgent(addr, name, cfg)
}

// NewEscalator wraps a sink with an escalation policy: count repeats of
// one condition within window publish an additional critical alarm.
func NewEscalator(next AlarmSink, count int, window time.Duration) AlarmSink {
	return alarm.NewEscalator(next, count, window)
}

// NewCollectorServer returns a collector server feeding the store.
func NewCollectorServer(store *Store) (*CollectorServer, error) {
	return collector.NewServer(store, nil)
}

// Observability surface.
type (
	// OpsServer serves the process's observability endpoints: /metrics
	// (Prometheus text format), /vars (JSON), /healthz, /statusz (recent
	// pipeline spans) and /debug/pprof.
	OpsServer = obs.OpsServer
)

// ServeOps starts the ops HTTP server on addr (e.g. ":6060") for the
// process-wide metric registry and tracer. Close the returned server to
// stop it.
func ServeOps(addr string) (*OpsServer, error) { return obs.ServeOps(addr) }

// RegisterBuildInfo publishes the mcorr_build_info identity gauge
// (constant 1, labeled with the binary's version, the Go runtime version
// and the networked shard count, 1 when scoring stays in this process) on
// the process-wide registry. Call once at
// startup; a later call replaces the previous series.
func RegisterBuildInfo(version string, shards int) { obs.RegisterBuildInfo(version, shards) }

// DialCollector connects an agent to a collector server.
func DialCollector(addr, agentName string) (*CollectorAgent, error) {
	return collector.Dial(addr, agentName)
}

// DialCollectorTenant connects an agent to a collector server, naming the
// tenant that owns the agent's samples in the hello. An empty tenant
// emits the legacy hello, which a multi-tenant server routes to its
// default tenant.
func DialCollectorTenant(addr, agentName, tenant string) (*CollectorAgent, error) {
	return collector.DialTenant(addr, agentName, tenant)
}

// MonitorOption customizes monitor construction (see WithDiagnosis and
// WithPairBudget).
type MonitorOption func(*monitorOptions)

type monitorOptions struct {
	diagnosis *DiagnosisConfig
	discovery *DiscoveryConfig
	// tenantOwned suppresses the monitor-level /api/v1/ registration: a
	// tenant's monitor must not shadow the registry-wide TenantAPI that
	// dispatches to every tenant by name (see ownedByTenant).
	tenantOwned bool
}

// Monitor is the streaming pipeline of one monitored system, the same type
// in every mode: a store, a row reader over it, a scoring fleet and its
// cursor, optionally a diagnosis engine and — when durable — a write-ahead
// log with checkpoints. Ingest samples as they arrive, and complete rows are
// scored automatically in time order. A row travels from the store to the
// pair loop as one slice in the fleet's measurement order: read out of the
// store into rowBuf, scored from it, then overwritten by the next row.
//
// A durable monitor (NewDurableMonitor, OpenDurableMonitor) survives crashes:
// every acked sample batch is in the write-ahead log before Ingest returns,
// and the whole pipeline (model fleet, store, scoring cursor) is checkpointed
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
//
// A Monitor is safe for concurrent use: its methods serialize on one lock,
// and every one that feeds or changes it fails once it is closed.
type Monitor struct {
	store *Store
	fleet Fleet
	step  time.Duration
	ids   []MeasurementID  // fleet.IDs(): the row's column order
	rows  *tsdb.RowReader  // the store, read in ids order
	diag  *DiagnosisEngine // non-nil iff built with WithDiagnosis
	api   *diagnose.API    // per-fleet API (nil unless diagnosis is on or a tenant owns the monitor)
	// A row's step in two halves: score makes its report, learn (nil
	// without a discovery tier) then feeds the row to the discovery tier.
	// The report is delivered between them.
	score func(time.Time, []float64) StepReport
	learn func(time.Time, []float64)
	// The durable half, zero in memory: the monitor is durable iff log is
	// non-nil.
	log *wal.Log
	cfg DurabilityConfig

	mu      sync.Mutex // guards everything below
	closed  bool
	cursor  time.Time
	rowBuf  []float64       // the row being scored
	scored  int             // cumulative scored rows, the cadence's progress counter
	cadence manager.Cadence // never due in memory
	epoch   uint64          // last committed checkpoint epoch

	replayApplied, replaySkipped int // what OpenDurableMonitor read out of the WAL

	// onReport, when set, receives each row's report as soon as diagnosis
	// has seen it, before the discovery tier learns from the row. A
	// Tenant sets it to its OnReport once recovery has re-scored the WAL
	// tail.
	onReport func(StepReport)
}

var errMonitorClosed = errors.New("monitor: closed")

// durable reports whether the monitor keeps a WAL and checkpoints.
func (m *Monitor) durable() bool { return m.log != nil }

// NewMonitor trains a scoring fleet on history and returns an in-memory
// monitor whose cursor starts at the end of the history window. The fleet
// is one Manager, behind the discovery tier when WithPairBudget or
// WithDiscovery asks for one.
func NewMonitor(history *Dataset, cfg ManagerConfig, opts ...MonitorOption) (*Monitor, error) {
	m, _, err := assemble(history, cfg, nil, opts)
	return m, err
}

// assemble is the one constructor behind NewMonitor, NewDurableMonitor and
// OpenDurableMonitor, and so behind every Tenant. A non-nil history trains
// the fleet; a nil one recovers it from dur's checkpoint and returns the
// rows re-scored out of the WAL tail. A nil dur keeps the pipeline in memory.
func assemble(history *Dataset, mcfg ManagerConfig, dur *DurabilityConfig, opts []MonitorOption) (*Monitor, []StepReport, error) {
	var o monitorOptions
	for _, opt := range opts {
		opt(&o)
	}
	m := &Monitor{}
	if dur != nil {
		m.cfg = *dur
		m.cadence = manager.Cadence{EverySteps: dur.CheckpointEvery, Interval: dur.CheckpointInterval}
		if dur.CheckpointEvery == 0 && dur.CheckpointInterval == 0 {
			m.cadence.EverySteps = 240 // the documented default: one simulated day
		}
		if history != nil {
			// Fresh state: an unusable directory fails now, not after training.
			if dur.DataDir == "" {
				return nil, nil, fmt.Errorf("durable monitor: DataDir is required")
			}
			if err := os.MkdirAll(dur.DataDir, 0o755); err != nil {
				return nil, nil, fmt.Errorf("durable monitor: %w", err)
			}
		}
	}
	if o.diagnosis != nil {
		// The engine wraps the alarm sink before the fleet exists so it sees
		// the full stream from the first scored — or replayed — row.
		m.diag = diagnose.NewEngine(*o.diagnosis)
		mcfg.Sink = m.diag.WrapSink(mcfg.Sink)
	}
	st := &pipelineState{}
	var err error
	if history != nil {
		err = st.train(history, mcfg, o)
	} else {
		err = st.load(m.cfg, mcfg.Sink, o)
	}
	if err != nil {
		return nil, nil, err
	}
	m.store, m.fleet, m.cursor, m.epoch = st.store, st.fleet, st.meta.Cursor, st.meta.Epoch
	m.step, m.ids = m.store.Step(), m.fleet.IDs()
	m.rows, m.rowBuf = m.store.Rows(m.ids), make([]float64, len(m.ids))
	m.score = m.fleet.StepValues
	if df, ok := m.fleet.(*discoveryFleet); ok {
		m.score, m.learn = df.Manager.StepValues, df.learn
	}
	fail := func(err error) (*Monitor, []StepReport, error) {
		if m.log != nil {
			m.log.Close()
		}
		m.fleet.Close()
		return nil, nil, err
	}
	if m.diag != nil && len(st.diagnose) > 0 {
		// The checkpointed engine state goes in before any row replays: the
		// replay then continues the incident state machine exactly where the
		// pre-crash run left it (same IDs, same rankings).
		if err := m.diag.UnmarshalState(st.diagnose); err != nil {
			return fail(fmt.Errorf("recover diagnosis: %w", err))
		}
	}
	if m.diag != nil || o.tenantOwned {
		// A tenant without an engine still serves topology through its API.
		m.api = wireDiagnosis(m.diag, m.fleet)
		if !o.tenantOwned {
			obs.RegisterOpsHandler("/api/v1/", m.api)
		}
	}
	if dur == nil {
		return m, nil, nil
	}
	if history == nil {
		if m.replayApplied, m.replaySkipped, err = m.store.ReplayWAL(m.cfg.walDir(), st.meta.WALSeq); err != nil {
			return fail(err)
		}
	}
	if m.log, err = wal.Open(m.cfg.walDir(), wal.Options{Sync: m.cfg.Fsync}); err != nil {
		return fail(err)
	}
	m.store.AttachWAL(m.log)
	if history != nil {
		// An initial checkpoint of the freshly trained fleet, so even an
		// immediate crash recovers to the trained state.
		if err := m.checkpointLocked(); err != nil {
			return fail(err)
		}
		return m, nil, nil
	}
	if m.log.LastSeq() < st.meta.WALSeq {
		// The log starts over behind the checkpoint: wal/ was removed after
		// a clean stop (OPERATIONS.md, "Upgrading across a WAL format
		// change"). Checkpoint now, so the checkpoint's WALSeq is the new
		// log's and a crash replays what it logs from here.
		if err := m.checkpointLocked(); err != nil {
			return fail(err)
		}
	}
	manager.RecordCheckpointEpoch(m.epoch)
	// Re-score everything the store holds beyond the checkpoint cursor.
	// WAL records are whole ingest batches (CRC-framed, torn tails
	// dropped), so the store only ever recovers complete rows; forcing
	// the flush here replays the fleet's steps in the original order and
	// reproduces the pre-crash trajectory bit for bit.
	var last time.Time
	for _, id := range m.ids {
		if t, ok := m.store.LastTime(id); ok && t.After(last) {
			last = t
		}
	}
	return m, m.scoreLocked(last.Add(m.step)), nil
}

// train fills st with a fresh pipeline's starting state: a fleet trained on
// history — one manager over every pair or over the pairs discovery
// admits — an empty
// store on history's grid and the cursor at the end of the window.
func (st *pipelineState) train(history *Dataset, cfg ManagerConfig, o monitorOptions) (err error) {
	ids := history.IDs()
	if len(ids) < 2 {
		return fmt.Errorf("monitor needs at least 2 measurements, got %d", len(ids))
	}
	if st.store, err = tsdb.NewStore(history.Get(ids[0]).Step, 0); err != nil {
		return err
	}
	if o.discovery != nil {
		st.fleet, err = newDiscoveryFleet(history, cfg, *o.discovery)
	} else {
		st.fleet, err = manager.New(history, cfg)
	}
	st.meta.Cursor = datasetEnd(history)
	return err
}

// Fleet exposes the scoring fleet (the Manager, behind the discovery
// wrapper when one is configured).
func (m *Monitor) Fleet() Fleet { return m.fleet }

// Manager exposes the manager that owns the models: the fleet itself, or
// the one its discovery tier bounds.
func (m *Monitor) Manager() *Manager {
	if df, ok := m.fleet.(*discoveryFleet); ok {
		return df.Manager
	}
	return m.fleet.(*Manager)
}

// Discovery exposes the discovery-bounded fleet surface, or nil when the
// monitor was built without WithPairBudget/WithDiscovery.
func (m *Monitor) Discovery() DiscoveryFleet {
	if df, ok := m.fleet.(*discoveryFleet); ok {
		return df
	}
	return nil
}

// Diagnosis exposes the incident diagnosis engine, or nil when the
// monitor was built without WithDiagnosis.
func (m *Monitor) Diagnosis() *DiagnosisEngine { return m.diag }

// Cursor returns the timestamp of the next row the monitor will score —
// after recovery, the point a feeder should resume streaming from.
func (m *Monitor) Cursor() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cursor
}

// RecoveryStats reports how many WAL samples OpenDurableMonitor applied and
// skipped (zero for a monitor that was not recovered).
func (m *Monitor) RecoveryStats() (applied, skipped int) {
	return m.replayApplied, m.replaySkipped
}

// Ingest stores the samples and scores every row that became complete
// (all monitored measurements present) up to the newest common timestamp.
// It returns the reports for the rows scored by this call. The ingest →
// score pipeline is traced (span "monitor.ingest" on the default obs
// tracer, visible at /statusz of an ops server). On a durable monitor the
// applied samples are in the WAL before Ingest returns, and a checkpoint is
// written whenever the configured cadence comes due.
func (m *Monitor) Ingest(samples ...Sample) ([]StepReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errMonitorClosed
	}
	sp := obs.StartSpan("monitor.ingest")
	sp.Phase("ingest")
	err := m.store.AppendBatch(samples)
	var reports []StepReport
	if err == nil {
		sp.Phase("score")
		// Rows are complete up to the minimum last-sample time — none is
		// while some measurement has no data yet.
		if ready, ok := m.rows.Ready(); ok {
			reports = m.scoreLocked(ready.Add(m.step))
		}
	}
	sp.End()
	if err == nil {
		err = m.checkpointIfDueLocked()
	}
	return reports, err
}

// FlushUpTo forces scoring of all rows before deadline even if some
// measurements are missing samples (gaps reset the affected links), then
// applies the checkpoint cadence like Ingest.
func (m *Monitor) FlushUpTo(deadline time.Time) ([]StepReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errMonitorClosed
	}
	reports := m.scoreLocked(deadline)
	return reports, m.checkpointIfDueLocked()
}

// scoreLocked scores every row from the cursor up to until, in time order
// on the calling goroutine: each is read out of the store into rowBuf and
// scored; when diagnosis is attached its finished report is fed to the
// engine — after scoring, never inside it, so the diagnosis layer stays
// off the Manager.Step hot path; the report goes to onReport; and only
// then does the discovery tier learn from the row. Its sketch updates and
// round-end training cannot change the row's own report, so they stay off
// the sample-to-alarm path, and its graph changes still land before the
// next row is scored and before any checkpoint.
func (m *Monitor) scoreLocked(until time.Time) []StepReport {
	var reports []StepReport
	for ; m.cursor.Before(until); m.cursor = m.cursor.Add(m.step) {
		m.rows.ReadRow(m.cursor, m.rowBuf)
		report := m.score(m.cursor, m.rowBuf)
		if m.diag != nil {
			m.diag.Observe(report)
		}
		if m.onReport != nil {
			m.onReport(report)
		}
		if m.learn != nil {
			m.learn(m.cursor, m.rowBuf)
		}
		reports = append(reports, report)
	}
	m.scored += len(reports)
	return reports
}

// checkpointIfDueLocked writes a durable monitor's checkpoint when its
// cadence has come due.
func (m *Monitor) checkpointIfDueLocked() error {
	if !m.durable() || !m.cadence.Due(m.scored, time.Now()) {
		return nil
	}
	return m.checkpointLocked()
}

// Checkpoint forces an immediate checkpoint regardless of cadence; an
// in-memory monitor has nothing to write and returns nil.
func (m *Monitor) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errMonitorClosed
	}
	return m.checkpointLocked()
}

// Close releases the fleet (see Fleet.Close); a durable monitor first writes a
// final checkpoint and closes the WAL, so it recovers instantly (empty WAL
// tail). Closing twice is a no-op.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	err := m.checkpointLocked()
	if m.durable() {
		if cerr := m.log.Close(); err == nil {
			err = cerr
		}
	}
	m.fleet.Close()
	return err
}

package mcorr

import (
	"fmt"
	"io"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/collector"
	"mcorr/internal/core"
	"mcorr/internal/diagnose"
	"mcorr/internal/manager"
	"mcorr/internal/mathx"
	"mcorr/internal/obs"
	"mcorr/internal/shard"
	"mcorr/internal/shardnet"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
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

// TimeConditionedModel keeps one transition matrix per time-of-day bucket
// over a shared grid (extension; see core.TimeConditioned).
type TimeConditionedModel = core.TimeConditioned

// TrainTimeConditionedModel builds a time-conditioned model from a
// regularly sampled history starting at start with the given step.
func TrainTimeConditionedModel(history []Point, start time.Time, step time.Duration, buckets int, cfg ModelConfig) (*TimeConditionedModel, error) {
	return core.TrainTimeConditioned(history, start, step, buckets, cfg)
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
	// ShardCoordinator is the sharded scoring fabric: the pair graph
	// partitioned across N manager shards with centrally merged,
	// bit-identical Q^a/Q aggregation (see WithShards).
	ShardCoordinator = shard.Coordinator
	// ShardNetCoordinator is the networked scoring fabric: the same
	// partition fanned out to worker processes over one coordinator-dialled
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
// configured worker processes (same rendezvous assignment as WithShards),
// dials each worker and ships it its models, and returns the coordinator.
// Only the workers listen. The merged Q^a/Q trajectory is bit-identical
// to the in-process fabrics for any worker count.
func NewShardNetFleet(history *Dataset, cfg ShardNetConfig) (*ShardNetCoordinator, error) {
	return shardnet.New(history, cfg)
}

// ListenShardNetWorker binds a networked shard worker to addr (":0"
// picks a free port). Call Serve on the result to accept coordinator
// sessions; see cmd/mcshard for the standalone binary.
func ListenShardNetWorker(addr string, cfg ShardNetWorkerConfig) (*ShardNetWorker, error) {
	return shardnet.ListenWorker(addr, cfg)
}

// Fleet is the scoring surface shared by the single Manager, the sharded
// ShardCoordinator and the networked ShardNetCoordinator: everything a
// monitor needs to score rows, read the three-level fitness state, and
// localize problems. Each embeds its *manager.Aggregator, whose methods
// are the read half of this interface; all produce bit-identical
// trajectories over the same rows.
type Fleet interface {
	// Step scores one synchronized row across every trained link. It is the
	// boundary form (manager.MapRows): the row is converted once into the
	// dense slice that StepValues scores.
	Step(Row) StepReport
	// StepValues scores the row whose i-th value is IDs()[i]'s, NaN for a
	// gap. vals stays the caller's: the fleet reads it until the call
	// returns and keeps no reference.
	StepValues(t time.Time, vals []float64) StepReport
	// Run replays a dataset through Step in time order.
	Run(ds *Dataset, from, to time.Time) ([]StepReport, error)
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
	// SetAdaptive toggles online model updating.
	SetAdaptive(bool)
	// ResetChains clears every model's Markov position.
	ResetChains()
	// Close releases worker pools.
	Close()
}

// Compile-time proof that every fleet shape satisfies the interface.
var (
	_ Fleet = (*Manager)(nil)
	_ Fleet = (*ShardCoordinator)(nil)
	_ Fleet = (*ShardNetCoordinator)(nil)
)

// ShardFor returns the shard in [0, shards) that owns the given pair
// under the fabric's rendezvous hashing — useful for capacity planning
// and for locating a pair's models on disk (data-dir/shard-<k>/).
func ShardFor(p Pair, shards int) int { return shard.Assign(p.String(), shards) }

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
// and the shard count) on the process-wide registry. Call once at
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

// MonitorOption customizes monitor construction (see WithShards).
type MonitorOption func(*monitorOptions)

type monitorOptions struct {
	shards    int
	diagnosis *DiagnosisConfig
	discovery *DiscoveryConfig
	// tenantOwned suppresses the monitor-level /api/v1/ registration: a
	// tenant's monitor must not shadow the registry-wide TenantAPI that
	// dispatches to every tenant by name.
	tenantOwned bool
}

// withTenantOwnedAPI marks the monitor as owned by a Tenant, which
// mounts the API surface itself (through the registry's TenantAPI).
func withTenantOwnedAPI() MonitorOption {
	return func(o *monitorOptions) { o.tenantOwned = true }
}

// WithShards partitions the monitor's pair graph across n manager shards
// (the sharded scoring fabric; see ShardCoordinator). n <= 1 keeps the
// single-manager path. Fitness trajectories are bit-identical for every
// shard count.
func WithShards(n int) MonitorOption {
	return func(o *monitorOptions) { o.shards = n }
}

// Monitor glues a store and a scoring fleet together for streaming use:
// ingest samples as they arrive, and complete rows are scored
// automatically in time order. A row travels from the store to the pair
// loop as one slice in the fleet's measurement order: read out of the store
// into rowBuf, scored from it, then overwritten by the next row.
type Monitor struct {
	store  *Store
	fleet  Fleet
	step   time.Duration
	cursor time.Time
	ids    []MeasurementID  // fleet.IDs(): the row's column order
	rows   *tsdb.RowReader  // the store, read in ids order
	rowBuf []float64        // the row being scored
	diag   *DiagnosisEngine // non-nil iff built with WithDiagnosis
	api    *diagnose.API    // per-fleet API (nil unless diagnosis is on)
}

// newMonitor binds a store and a fleet into a monitor scoring from cursor.
func newMonitor(store *Store, fleet Fleet, cursor time.Time, diag *DiagnosisEngine, api *diagnose.API) *Monitor {
	ids := fleet.IDs()
	return &Monitor{store: store, fleet: fleet, step: store.Step(), cursor: cursor, ids: ids,
		rows: store.Rows(ids), rowBuf: make([]float64, len(ids)), diag: diag, api: api}
}

// newFleet trains either a single manager or a sharded coordinator.
func newFleet(history *Dataset, cfg ManagerConfig, shards int) (Fleet, error) {
	if shards > 1 {
		return shard.New(history, shard.Config{Shards: shards, Manager: cfg})
	}
	return manager.New(history, cfg)
}

// NewMonitor trains a scoring fleet on history and returns a monitor
// whose cursor starts at the end of the history window. By default the
// fleet is one Manager; WithShards(n) partitions it across n shards.
func NewMonitor(history *Dataset, cfg ManagerConfig, opts ...MonitorOption) (*Monitor, error) {
	var o monitorOptions
	for _, opt := range opts {
		opt(&o)
	}
	ids := history.IDs()
	if len(ids) < 2 {
		return nil, fmt.Errorf("monitor needs at least 2 measurements, got %d", len(ids))
	}
	step := history.Get(ids[0]).Step
	var diag *DiagnosisEngine
	if o.diagnosis != nil {
		// The engine wraps the alarm sink before the fleet exists so it
		// sees the full stream from the first scored row.
		diag = diagnose.NewEngine(*o.diagnosis)
		cfg.Sink = diag.WrapSink(cfg.Sink)
	}
	var (
		fleet Fleet
		err   error
	)
	if o.discovery != nil {
		fleet, err = newDiscoveryFleet(history, cfg, *o.discovery, o.shards)
	} else {
		fleet, err = newFleet(history, cfg, o.shards)
	}
	if err != nil {
		return nil, err
	}
	var api *diagnose.API
	if diag != nil {
		api = wireDiagnosis(diag, fleet)
		if !o.tenantOwned {
			obs.RegisterOpsHandler("/api/v1/", api)
		}
	}
	store, err := tsdb.NewStore(step, 0)
	if err != nil {
		fleet.Close()
		return nil, err
	}
	cursor := time.Time{}
	for _, id := range ids {
		if end := history.Get(id).End(); end.After(cursor) {
			cursor = end
		}
	}
	return newMonitor(store, fleet, cursor, diag, api), nil
}

// Fleet exposes the scoring fleet (a *Manager or a *ShardCoordinator).
func (m *Monitor) Fleet() Fleet { return m.fleet }

// Manager exposes the underlying model fleet when the monitor is
// unsharded; it returns nil for a sharded monitor (use Fleet, or
// Coordinator for the shard-specific surface).
func (m *Monitor) Manager() *Manager {
	mgr, _ := m.modelFleet().(*Manager)
	return mgr
}

// modelFleet returns the fleet that owns the models: the monitor's own, or
// the one its discovery tier bounds.
func (m *Monitor) modelFleet() Fleet {
	if df, ok := m.fleet.(*discoveryFleet); ok {
		return df.graphFleet
	}
	return m.fleet
}

// Discovery exposes the discovery-bounded fleet surface, or nil when the
// monitor was built without WithPairBudget/WithDiscovery.
func (m *Monitor) Discovery() DiscoveryFleet {
	if df, ok := m.fleet.(*discoveryFleet); ok {
		return df
	}
	return nil
}

// Coordinator exposes the sharded fabric, or nil when unsharded.
func (m *Monitor) Coordinator() *ShardCoordinator {
	coord, _ := m.modelFleet().(*ShardCoordinator)
	return coord
}

// Diagnosis exposes the incident diagnosis engine, or nil when the
// monitor was built without WithDiagnosis.
func (m *Monitor) Diagnosis() *DiagnosisEngine { return m.diag }

// Shards returns the monitor's current shard count (1 when unsharded).
func (m *Monitor) Shards() int {
	if coord := m.Coordinator(); coord != nil {
		return coord.NumShards()
	}
	return 1
}

// Reshard repartitions a sharded monitor across n shards without
// retraining or disturbing the fitness trajectory (see
// ShardCoordinator.Reshard). It returns the number of pair models that
// changed owner, and an error on an unsharded monitor.
func (m *Monitor) Reshard(n int) (int, error) {
	coord := m.Coordinator()
	if coord == nil {
		return 0, fmt.Errorf("monitor: not sharded; construct with WithShards to reshard")
	}
	return coord.Reshard(n)
}

// Cursor returns the timestamp of the next row the monitor will score.
func (m *Monitor) Cursor() time.Time { return m.cursor }

// Ingest stores the samples and scores every row that became complete
// (all monitored measurements present) up to the newest common timestamp.
// It returns the reports for the rows scored by this call. The ingest →
// score pipeline is traced (span "monitor.ingest" on the default obs
// tracer, visible at /statusz of an ops server).
func (m *Monitor) Ingest(samples ...Sample) ([]StepReport, error) {
	sp := obs.StartSpan("monitor.ingest")
	defer sp.End()
	sp.Phase("ingest")
	if err := m.store.AppendBatch(samples); err != nil {
		return nil, err
	}
	sp.Phase("score")
	// Rows are complete up to the minimum last-sample time.
	ready, ok := m.rows.Ready()
	if !ok {
		return nil, nil // some measurement has no data yet
	}
	return m.flushUntil(ready.Add(m.step)), nil
}

// FlushUpTo forces scoring of all rows before deadline even if some
// measurements are missing samples (gaps reset the affected links).
func (m *Monitor) FlushUpTo(deadline time.Time) []StepReport {
	return m.flushUntil(deadline)
}

// flushUntil scores every row from the cursor up to until, in time order
// on the calling goroutine: each is read out of the store into rowBuf,
// stepped through the fleet and, when diagnosis is attached, its finished
// report fed to the engine — after scoring, never inside it, so the
// diagnosis layer stays off the Manager.Step hot path.
func (m *Monitor) flushUntil(until time.Time) []StepReport {
	var reports []StepReport
	for ; m.cursor.Before(until); m.cursor = m.cursor.Add(m.step) {
		m.rows.ReadRow(m.cursor, m.rowBuf)
		report := m.fleet.StepValues(m.cursor, m.rowBuf)
		if m.diag != nil {
			m.diag.Observe(report)
		}
		reports = append(reports, report)
	}
	return reports
}

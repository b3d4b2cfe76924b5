package mcorr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/obs"
	"mcorr/internal/tsdb"
)

// DefaultTenant is the tenant that owns traffic from agents whose hello
// carries no tenant field — every pre-tenancy wire client lands here, so
// a single-tenant deployment never has to name anything.
const DefaultTenant = "default"

// ErrMeasurementQuota is the cause wrapped into the PartialAppendError a
// tenant returns when a batch would push it past its MaxMeasurements
// quota. The leading samples under quota are stored (and acked); the
// tail is refused.
var ErrMeasurementQuota = errors.New("measurement quota exceeded")

// TenantQuota bounds one tenant's resource footprint. The zero value is
// unlimited.
type TenantQuota struct {
	// MaxMeasurements caps the distinct measurements the tenant may
	// ingest. A batch introducing a measurement beyond the cap is cut
	// there and the tail refused with ErrMeasurementQuota (surfaced as a
	// partial ack on the wire, so agents do not lose the under-quota
	// prefix). 0 = unlimited.
	MaxMeasurements int `json:"max_measurements"`
	// MaxPairs caps the tenant's modeled pair graph. With discovery
	// enabled it clamps the discovery budget; without discovery, tenant
	// creation fails when the full graph l(l−1)/2 exceeds the cap.
	// 0 = unlimited.
	MaxPairs int `json:"max_pairs"`
	// SamplesPerSecond rate-limits the tenant's collector ingest with a
	// token bucket (enforced server-side, ahead of per-agent limits).
	// 0 = unlimited.
	SamplesPerSecond float64 `json:"samples_per_second"`
	// Burst is the tenant token-bucket capacity in samples
	// (0 = max(SamplesPerSecond, the wire batch limit)).
	Burst int `json:"burst"`
}

// TenantConfig describes one tenant to Registry.CreateTenant.
type TenantConfig struct {
	// Name identifies the tenant: lowercase letters, digits, "-" and "_",
	// max 64 bytes (it becomes a directory name and a metric label).
	// Empty means DefaultTenant.
	Name string
	// History trains the tenant's fleet (required unless the tenant is
	// durable and a checkpoint already exists to recover from).
	History *Dataset
	// Manager configures the tenant's model fleet.
	Manager ManagerConfig
	// Quota bounds the tenant's footprint (zero value = unlimited).
	Quota TenantQuota
	// Durable persists the tenant under <registry data dir>/tenants/<name>
	// (the default tenant reuses a pre-tenancy layout at the data-dir root
	// when one exists). CreateTenant recovers from an existing checkpoint
	// automatically.
	Durable bool
	// Durability tunes checkpoint cadence and WAL fsync for a durable
	// tenant. DataDir is derived from the registry and ignored here.
	Durability DurabilityConfig
	// Options customize the monitor (shards, score queue, diagnosis,
	// discovery) exactly as for NewMonitor.
	Options []MonitorOption
	// OnReport, when set, receives every finished StepReport (including
	// rows re-scored during recovery ingest) under the tenant's lock, in
	// scoring order.
	OnReport func(tenant string, r StepReport)
}

// Tenant is one isolated monitored system inside a multi-tenant
// deployment: its own store, scoring fleet, optional discovery policy and
// diagnosis engine, optional durable state, and its own quotas. A Tenant
// is a collector Sink — the server routes each connection's batches to
// the tenant named in the agent's hello. All methods are safe for
// concurrent use; ingest is serialized per tenant, so trajectories are
// deterministic per tenant regardless of cross-tenant interleaving.
type Tenant struct {
	name  string
	quota TenantQuota

	mu        sync.Mutex
	mon       *Monitor
	seen      map[MeasurementID]bool
	onReport  func(string, StepReport)
	recovered []StepReport
	closed    bool
}

// Per-tenant metric families. Labeled by tenant name; series are deleted
// when the tenant closes, so cardinality tracks the live tenant set.
var (
	obsTenantCount = obs.Default().Gauge("mcorr_tenant_count",
		"Tenants currently open across every registry in the process.")
	obsTenantRows = obs.Default().CounterVec("mcorr_tenant_rows_total",
		"Rows scored per tenant.",
		"tenant")
	obsTenantOpenIncidents = obs.Default().GaugeVec("mcorr_tenant_incidents_open",
		"Open incidents per tenant (tenants with a diagnosis engine).",
		"tenant")
	obsTenantQuotaRejected = obs.Default().CounterVec("mcorr_tenant_quota_rejected_total",
		"Samples refused by a tenant's measurement quota.",
		"tenant")
)

// ValidTenantName reports whether name is usable as a tenant name:
// non-empty, at most 64 bytes, lowercase letters, digits, "-" and "_",
// not starting with a separator. Tenant names become directory names
// under data-dir/tenants/ and values of the tenant metric label, so the
// alphabet is deliberately narrow.
func ValidTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// TenantDir returns the durable-state directory for a tenant under the
// registry's data dir. Tenants live under dataDir/tenants/<name>, with
// one backward-compatible exception: when the default tenant finds a
// pre-tenancy layout at the data-dir root (a checkpoint or WAL written
// by an older single-tenant deployment), it keeps using the root, so
// upgrades recover their existing state.
func TenantDir(dataDir, name string) string {
	if name == DefaultTenant {
		if HasCheckpoint(dataDir) {
			return dataDir
		}
		if _, err := os.Stat(filepath.Join(dataDir, "wal")); err == nil {
			return dataDir
		}
	}
	return filepath.Join(dataDir, "tenants", name)
}

// Registry creates, looks up and closes tenants, and routes collector
// traffic to them (it satisfies the collector's TenantRouter). Building
// a registry mounts the tenant-scoped query API on every ops server
// under /api/v1/ (tenants, correlate, and tenant-dispatched fitness /
// incidents / topology).
type Registry struct {
	dataDir string

	mu      sync.RWMutex
	tenants map[string]*Tenant
	// pending holds the names CreateTenant is still building: taken, but
	// not yet open to lookups and routing.
	pending map[string]bool
	// collectors are the collector servers routing through this registry
	// (registered by NewTenantCollectorServer); closing a tenant tears
	// its per-tenant/per-agent flow series and limiter state out of each.
	collectors []*CollectorServer
	closed     bool
}

// NewTenantRegistry returns an empty registry. dataDir is the root for
// durable tenants ("" = in-memory tenants only; creating a durable
// tenant then fails).
func NewTenantRegistry(dataDir string) *Registry {
	r := &Registry{dataDir: dataDir, tenants: make(map[string]*Tenant), pending: make(map[string]bool)}
	obs.RegisterOpsHandler("/api/v1/", NewTenantAPI(r))
	return r
}

// CreateTenant creates (or, for a durable tenant with an existing
// checkpoint, recovers) a tenant and registers it for routing. The
// returned tenant's Recovered reports hold the re-scored post-crash rows
// when recovery happened. The name is reserved before anything is trained
// or opened, so of two concurrent calls for one name the second fails
// without touching the tenant's directory.
func (r *Registry) CreateTenant(cfg TenantConfig) (*Tenant, error) {
	name := cfg.Name
	if name == "" {
		name = DefaultTenant
	}
	if !ValidTenantName(name) {
		return nil, fmt.Errorf("mcorr: invalid tenant name %q", cfg.Name)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errors.New("mcorr: tenant registry closed")
	}
	if _, dup := r.tenants[name]; dup || r.pending[name] {
		r.mu.Unlock()
		return nil, fmt.Errorf("mcorr: tenant %q already exists", name)
	}
	r.pending[name] = true
	r.mu.Unlock()

	t, err := buildTenant(r.dataDir, name, cfg)

	r.mu.Lock()
	delete(r.pending, name)
	if err == nil && r.closed {
		err = errors.New("mcorr: tenant registry closed")
	}
	if err == nil {
		r.tenants[name] = t
	}
	n := len(r.tenants)
	r.mu.Unlock()
	if err != nil {
		if t != nil {
			t.Close()
		}
		return nil, err
	}
	obsTenantCount.Set(float64(n))
	return t, nil
}

// ownedByTenant marks the monitor as a Tenant's, which serves the API
// surface itself (through the registry's TenantAPI), and clamps the
// discovery budget to the tenant's MaxPairs quota. buildTenant applies it
// after the caller's options, so it sees the discovery config they settled on.
func ownedByTenant(maxPairs int) MonitorOption {
	return func(o *monitorOptions) {
		o.tenantOwned = true
		if d := o.discovery; d != nil && maxPairs > 0 && (d.Budget == 0 || d.Budget > maxPairs) {
			d.Budget = maxPairs // o's own copy, as WithPairBudget treats it
		}
	}
}

// buildTenant constructs the tenant's monitor (fresh or recovered) and
// wraps it with quota state.
func buildTenant(dataDir, name string, cfg TenantConfig) (*Tenant, error) {
	opts := append(append([]MonitorOption{}, cfg.Options...), ownedByTenant(cfg.Quota.MaxPairs))
	history, dur := cfg.History, (*DurabilityConfig)(nil)
	switch {
	case cfg.Durable && dataDir == "":
		return nil, fmt.Errorf("mcorr: tenant %q is durable but the registry has no data dir", name)
	case cfg.Durable:
		dcfg := cfg.Durability
		dcfg.DataDir = TenantDir(dataDir, name)
		dur = &dcfg
		if HasCheckpoint(dcfg.DataDir) {
			history = nil // recover: the checkpoint wins over cfg.History
		} else if history == nil {
			return nil, fmt.Errorf("mcorr: tenant %q has no checkpoint to recover and no history to train on", name)
		}
	case history == nil:
		return nil, fmt.Errorf("mcorr: tenant %q needs History (in-memory tenants cannot recover)", name)
	}
	mon, recovered, err := assemble(history, cfg.Manager, dur, opts)
	if err != nil {
		return nil, fmt.Errorf("mcorr: tenant %q: %w", name, err)
	}

	if cfg.Quota.MaxPairs > 0 && mon.Discovery() == nil {
		l := len(mon.ids)
		if full := l * (l - 1) / 2; full > cfg.Quota.MaxPairs {
			mon.Close()
			return nil, fmt.Errorf("mcorr: tenant %q: full pair graph %d exceeds MaxPairs %d (enable discovery with WithPairBudget, or raise the quota)",
				name, full, cfg.Quota.MaxPairs)
		}
	}

	seen := make(map[MeasurementID]bool, len(mon.ids))
	for _, id := range mon.ids {
		seen[id] = true
	}
	// Measurements replayed from the WAL beyond the trained set also
	// count against the quota after recovery.
	for _, id := range mon.store.IDs() {
		seen[id] = true
	}
	t := &Tenant{
		name:      name,
		quota:     cfg.Quota,
		mon:       mon,
		seen:      seen,
		onReport:  cfg.OnReport,
		recovered: recovered,
	}
	t.noteReportsLocked(recovered) // nobody else holds t yet
	return t, nil
}

// Tenant looks a tenant up by name.
func (r *Registry) Tenant(name string) (*Tenant, bool) {
	r.mu.RLock()
	t, ok := r.tenants[name]
	r.mu.RUnlock()
	return t, ok
}

// Names returns the open tenants' names, sorted.
func (r *Registry) Names() []string {
	tenants := r.Tenants()
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.name
	}
	return names
}

// Tenants returns the open tenants sorted by name.
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// CloseTenant closes one tenant (final checkpoint for durable tenants)
// and removes it from routing. Closing an unknown tenant is an error.
func (r *Registry) CloseTenant(name string) error {
	r.mu.Lock()
	t, ok := r.tenants[name]
	if ok {
		delete(r.tenants, name)
	}
	n := len(r.tenants)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("mcorr: unknown tenant %q", name)
	}
	obsTenantCount.Set(float64(n))
	err := t.Close()
	r.forgetTenantSeries(name)
	return err
}

// Close closes every tenant. The registry cannot be reused.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.tenants = map[string]*Tenant{}
	r.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	var first error
	for _, t := range tenants {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
		r.forgetTenantSeries(t.name)
	}
	obsTenantCount.Set(0)
	return first
}

// SinkFor implements the collector's TenantRouter: the wire tenant ""
// (a legacy hello) maps to DefaultTenant; unknown tenants refuse the
// connection.
func (r *Registry) SinkFor(tenant string) (string, collector.Sink, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	t, ok := r.Tenant(tenant)
	if !ok {
		return "", nil, fmt.Errorf("mcorr: unknown tenant %q", tenant)
	}
	return t.name, t, nil
}

// TenantLimit implements the collector's TenantRouter: the tenant's
// ingest rate quota.
func (r *Registry) TenantLimit(name string) (rate float64, burst int) {
	t, ok := r.Tenant(name)
	if !ok {
		return 0, 0
	}
	return t.quota.SamplesPerSecond, t.quota.Burst
}

// NewTenantCollectorServer returns a collector server that routes every
// agent connection to the registry's tenants by the tenant field of the
// agent's hello (legacy hellos land on the default tenant).
func NewTenantCollectorServer(r *Registry) (*CollectorServer, error) {
	srv, err := collector.NewTenantServer(r, nil)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, srv)
	r.mu.Unlock()
	return srv, nil
}

// forgetTenantSeries removes a closed tenant's footprint from every
// collector server routed by this registry.
func (r *Registry) forgetTenantSeries(name string) {
	r.mu.RLock()
	collectors := append([]*CollectorServer(nil), r.collectors...)
	r.mu.RUnlock()
	for _, srv := range collectors {
		srv.ForgetTenant(name)
	}
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Quota returns the tenant's configured quotas.
func (t *Tenant) Quota() TenantQuota { return t.quota }

// Monitor exposes the tenant's monitor.
func (t *Tenant) Monitor() *Monitor { return t.mon }

// Fleet exposes the tenant's scoring fleet.
func (t *Tenant) Fleet() Fleet { return t.mon.Fleet() }

// Diagnosis exposes the tenant's incident engine, or nil when the tenant
// was built without WithDiagnosis.
func (t *Tenant) Diagnosis() *DiagnosisEngine { return t.mon.Diagnosis() }

// Recovered returns the step reports re-scored during crash recovery
// (empty for a fresh tenant).
func (t *Tenant) Recovered() []StepReport { return t.recovered }

// AppendBatch implements the collector Sink: the tenant ingests the
// batch, scoring every row it completes. Quota refusals surface as
// *tsdb.PartialAppendError so the collector acks exactly the stored
// prefix.
func (t *Tenant) AppendBatch(batch []tsdb.Sample) error {
	_, err := t.Ingest(batch...)
	return err
}

// Ingest stores the samples (under the tenant's measurement quota) and
// scores every row that became complete, exactly like Monitor.Ingest but
// serialized per tenant and counted on the tenant metric families.
func (t *Tenant) Ingest(samples ...Sample) ([]StepReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("mcorr: tenant %q closed", t.name)
	}
	admitted, qerr := t.admitLocked(samples)
	var (
		reports []StepReport
		err     error
	)
	if len(admitted) > 0 {
		reports, err = t.mon.Ingest(admitted...)
	}
	t.noteReportsLocked(reports)
	if err != nil {
		return reports, err
	}
	if qerr != nil {
		return reports, &tsdb.PartialAppendError{Stored: len(admitted), Err: qerr}
	}
	return reports, nil
}

// FlushUpTo forces scoring of every row before deadline even when some
// measurements are missing samples (gaps reset the affected links),
// exactly like Monitor.FlushUpTo but with the tenant's metric and
// OnReport bookkeeping.
func (t *Tenant) FlushUpTo(deadline time.Time) ([]StepReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("mcorr: tenant %q closed", t.name)
	}
	reports, err := t.mon.FlushUpTo(deadline)
	t.noteReportsLocked(reports)
	return reports, err
}

// noteReportsLocked counts finished rows on the tenant metric families
// and delivers them to OnReport. Caller holds t.mu.
func (t *Tenant) noteReportsLocked(reports []StepReport) {
	if len(reports) == 0 {
		return
	}
	obsTenantRows.With(t.name).Add(uint64(len(reports)))
	if diag := t.mon.Diagnosis(); diag != nil {
		obsTenantOpenIncidents.With(t.name).Set(float64(diag.OpenCount()))
	}
	if t.onReport != nil {
		for _, rep := range reports {
			t.onReport(t.name, rep)
		}
	}
}

// admitLocked applies the measurement quota to a batch: samples for
// known measurements always pass; a sample introducing a measurement
// beyond MaxMeasurements cuts the batch there. Caller holds t.mu.
func (t *Tenant) admitLocked(samples []Sample) ([]Sample, error) {
	if t.quota.MaxMeasurements <= 0 {
		return samples, nil
	}
	for i, s := range samples {
		if t.seen[s.ID] {
			continue
		}
		if len(t.seen) >= t.quota.MaxMeasurements {
			obsTenantQuotaRejected.With(t.name).Add(uint64(len(samples) - i))
			return samples[:i], fmt.Errorf("tenant %q: measurement %s over cap %d: %w",
				t.name, s.ID, t.quota.MaxMeasurements, ErrMeasurementQuota)
		}
		t.seen[s.ID] = true
	}
	return samples, nil
}

// Checkpoint forces a durable tenant's checkpoint (no-op for in-memory
// tenants).
func (t *Tenant) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	return t.mon.Checkpoint()
}

// Close releases the tenant: a final checkpoint and WAL close for a
// durable tenant, fleet worker shutdown for all, and removal of the
// tenant's labeled metric series.
func (t *Tenant) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.mon.Close()
	obsTenantRows.Delete(t.name)
	obsTenantOpenIncidents.Delete(t.name)
	obsTenantQuotaRejected.Delete(t.name)
	return err
}

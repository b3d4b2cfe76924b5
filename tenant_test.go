package mcorr_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// rowBatch assembles one complete sample row at tm.
func rowBatch(t *testing.T, ds *timeseries.Dataset, tm time.Time) []mcorr.Sample {
	t.Helper()
	var batch []mcorr.Sample
	for _, id := range ds.IDs() {
		s := ds.Get(id)
		i, ok := s.IndexOf(tm)
		if !ok {
			t.Fatalf("missing sample at %v", tm)
		}
		batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[i]})
	}
	return batch
}

// bits projects a report stream to comparable Q bit patterns.
func bits(reports []mcorr.StepReport) []uint64 {
	out := make([]uint64, len(reports))
	for i, r := range reports {
		out[i] = math.Float64bits(r.System)
	}
	return out
}

// TestTenantIsolationBitIdentical is the multi-tenant acceptance test:
// two tenants sharing one registry and one collector server — with
// colliding measurement IDs, since both workloads use the same group
// name — must produce exactly the Q trajectories of two isolated
// single-tenant monitors fed the same workloads.
func TestTenantIsolationBitIdentical(t *testing.T) {
	const rows = 30
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	seeds := map[string]int64{"alpha": 31, "beta": 37}
	datasets := make(map[string]*timeseries.Dataset, len(seeds))
	baseline := make(map[string][]uint64, len(seeds))
	for name, seed := range seeds {
		ds, _, err := simulator.Generate(simulator.GroupConfig{
			Name: "F", Machines: 2, Days: 2, Seed: seed,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		datasets[name] = ds
		mon, err := mcorr.NewMonitor(ds.Slice(timeseries.MonitoringStart, day1), mcorr.ManagerConfig{})
		if err != nil {
			t.Fatalf("NewMonitor: %v", err)
		}
		var reports []mcorr.StepReport
		for k := 0; k < rows; k++ {
			rep, err := mon.Ingest(rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))...)
			if err != nil {
				t.Fatalf("baseline ingest: %v", err)
			}
			reports = append(reports, rep...)
		}
		if len(reports) != rows {
			t.Fatalf("baseline %s scored %d rows, want %d", name, len(reports), rows)
		}
		baseline[name] = bits(reports)
		mon.Close()
	}

	reg := mcorr.NewTenantRegistry("")
	defer reg.Close()
	got := make(map[string][]uint64, len(seeds))
	for name := range seeds {
		name := name
		_, err := reg.CreateTenant(mcorr.TenantConfig{
			Name:    name,
			History: datasets[name].Slice(timeseries.MonitoringStart, day1),
			OnReport: func(tenant string, r mcorr.StepReport) {
				got[tenant] = append(got[tenant], math.Float64bits(r.System))
			},
		})
		if err != nil {
			t.Fatalf("CreateTenant %s: %v", name, err)
		}
	}

	srv, err := mcorr.NewTenantCollectorServer(reg)
	if err != nil {
		t.Fatalf("NewTenantCollectorServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	agents := make(map[string]*mcorr.ReliableAgent, len(seeds))
	for name := range seeds {
		agents[name] = mcorr.NewReliableAgent(addr.String(), name+"-shipper", mcorr.ReliableConfig{Tenant: name})
		defer agents[name].Close()
	}
	// Interleave the two tenants' rows over the shared server.
	for k := 0; k < rows; k++ {
		tm := day1.Add(time.Duration(k) * timeseries.SampleStep)
		for name, a := range agents {
			if err := a.Send(rowBatch(t, datasets[name], tm)); err != nil {
				t.Fatalf("tenant %s send: %v", name, err)
			}
		}
	}

	for name := range seeds {
		if len(got[name]) != rows {
			t.Fatalf("tenant %s scored %d rows, want %d", name, len(got[name]), rows)
		}
		for i := range baseline[name] {
			if got[name][i] != baseline[name][i] {
				t.Fatalf("tenant %s row %d: Q bits %x != baseline %x (tenancy must not perturb trajectories)",
					name, i, got[name][i], baseline[name][i])
			}
		}
	}
}

// TestTenantMeasurementQuota proves the quota cuts a batch at the first
// over-cap measurement and reports the stored prefix, so the collector
// acks truthfully.
func TestTenantMeasurementQuota(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "F", Machines: 2, Days: 2, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	reg := mcorr.NewTenantRegistry("")
	defer reg.Close()
	tn, err := reg.CreateTenant(mcorr.TenantConfig{
		Name:    "capped",
		History: ds.Slice(timeseries.MonitoringStart, day1),
		Quota:   mcorr.TenantQuota{MaxMeasurements: len(ds.IDs())},
	})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}

	// The trained measurements fill the quota exactly: known IDs pass...
	if _, err := tn.Ingest(rowBatch(t, ds, day1)...); err != nil {
		t.Fatalf("ingest of known measurements: %v", err)
	}
	// ...but a batch introducing a new one is cut there.
	next := day1.Add(timeseries.SampleStep)
	batch := rowBatch(t, ds, next)
	batch = append(batch, mcorr.Sample{
		ID:   timeseries.MeasurementID{Machine: "F-srv-00", Metric: "surprise"},
		Time: next, Value: 1,
	})
	_, err = tn.Ingest(batch...)
	var pae *tsdb.PartialAppendError
	if !errors.As(err, &pae) {
		t.Fatalf("over-quota ingest: got %v, want PartialAppendError", err)
	}
	if pae.Stored != len(batch)-1 {
		t.Errorf("stored prefix = %d, want %d", pae.Stored, len(batch)-1)
	}
	if !errors.Is(err, mcorr.ErrMeasurementQuota) {
		t.Errorf("error does not wrap ErrMeasurementQuota: %v", err)
	}
	// The refused measurement was never admitted: retrying it alone is
	// still refused rather than passing as "already seen".
	if _, err := tn.Ingest(batch[len(batch)-1]); !errors.Is(err, mcorr.ErrMeasurementQuota) {
		t.Errorf("retry of refused measurement: got %v, want quota error", err)
	}
}

// TestTenantMaxPairsQuota: without discovery, a full pair graph beyond
// MaxPairs refuses tenant creation; with discovery, the budget clamps.
func TestTenantMaxPairsQuota(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "F", Machines: 2, Days: 1, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	end := timeseries.MonitoringStart.AddDate(0, 0, 1)
	reg := mcorr.NewTenantRegistry("")
	defer reg.Close()
	if _, err := reg.CreateTenant(mcorr.TenantConfig{
		Name:    "tight",
		History: ds.Slice(timeseries.MonitoringStart, end),
		Quota:   mcorr.TenantQuota{MaxPairs: 1},
	}); err == nil {
		t.Fatal("full graph beyond MaxPairs: want error")
	}
	tn, err := reg.CreateTenant(mcorr.TenantConfig{
		Name:    "clamped",
		History: ds.Slice(timeseries.MonitoringStart, end),
		Quota:   mcorr.TenantQuota{MaxPairs: 3},
		Options: []mcorr.MonitorOption{mcorr.WithDiscovery(mcorr.DiscoveryConfig{Budget: 100})},
	})
	if err != nil {
		t.Fatalf("CreateTenant with discovery: %v", err)
	}
	df := tn.Monitor().Discovery()
	if df == nil {
		t.Fatal("discovery fleet missing")
	}
	if _, budget, _ := df.BudgetInfo(); budget != 3 {
		t.Errorf("discovery budget = %d, want clamped to MaxPairs 3", budget)
	}
}

// TestTenantRegistryLifecycle covers naming, duplicates, lookup order,
// routing and close semantics.
func TestTenantRegistryLifecycle(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "F", Machines: 2, Days: 1, Seed: 9})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	end := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, end)

	if mcorr.ValidTenantName("") || mcorr.ValidTenantName("-lead") || mcorr.ValidTenantName("UP") ||
		!mcorr.ValidTenantName("team-a_2") {
		t.Error("ValidTenantName alphabet wrong")
	}

	reg := mcorr.NewTenantRegistry("")
	defer reg.Close()
	for _, name := range []string{"beta", "alpha"} {
		if _, err := reg.CreateTenant(mcorr.TenantConfig{Name: name, History: history}); err != nil {
			t.Fatalf("CreateTenant %s: %v", name, err)
		}
	}
	if _, err := reg.CreateTenant(mcorr.TenantConfig{Name: "alpha", History: history}); err == nil {
		t.Error("duplicate tenant: want error")
	}
	if _, err := reg.CreateTenant(mcorr.TenantConfig{Name: "Bad Name", History: history}); err == nil {
		t.Error("invalid name: want error")
	}
	if _, err := reg.CreateTenant(mcorr.TenantConfig{Name: "durable-no-dir", History: history, Durable: true}); err == nil {
		t.Error("durable tenant without data dir: want error")
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Names = %v", names)
	}
	// An empty config name means the default tenant.
	if _, err := reg.CreateTenant(mcorr.TenantConfig{History: history}); err != nil {
		t.Fatalf("default tenant: %v", err)
	}
	name, sink, err := reg.SinkFor("")
	if err != nil || name != mcorr.DefaultTenant || sink == nil {
		t.Errorf("SinkFor(\"\") = (%q, %v, %v)", name, sink, err)
	}
	if _, _, err := reg.SinkFor("ghost"); err == nil {
		t.Error("SinkFor unknown tenant: want error")
	}
	if err := reg.CloseTenant("ghost"); err == nil {
		t.Error("CloseTenant unknown: want error")
	}
	if err := reg.CloseTenant("beta"); err != nil {
		t.Errorf("CloseTenant: %v", err)
	}
	if _, ok := reg.Tenant("beta"); ok {
		t.Error("closed tenant still routed")
	}
	if err := reg.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := reg.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := reg.CreateTenant(mcorr.TenantConfig{Name: "late", History: history}); err == nil {
		t.Error("CreateTenant after Close: want error")
	}
}

// TestTenantDirLegacyLayout: the default tenant reuses a pre-tenancy
// data-dir root; everything else lives under tenants/<name>.
func TestTenantDirLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if got, want := mcorr.TenantDir(dir, "default"), filepath.Join(dir, "tenants", "default"); got != want {
		t.Errorf("fresh default dir = %s, want %s", got, want)
	}
	if got, want := mcorr.TenantDir(dir, "alpha"), filepath.Join(dir, "tenants", "alpha"); got != want {
		t.Errorf("alpha dir = %s, want %s", got, want)
	}
	// A pre-tenancy checkpoint at the root pins the default tenant there.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mcorr.TenantDir(dir, "default"); got != dir {
		t.Errorf("legacy default dir = %s, want the root %s", got, dir)
	}
	if got, want := mcorr.TenantDir(dir, "alpha"), filepath.Join(dir, "tenants", "alpha"); got != want {
		t.Errorf("alpha dir with legacy root = %s, want %s", got, want)
	}
}

// TestTenantDurableRecovery closes a durable tenant mid-stream and
// recovers it in a fresh registry: the continued trajectory must be
// bit-identical to an uninterrupted in-memory baseline.
func TestTenantDurableRecovery(t *testing.T) {
	const half = 20
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "F", Machines: 2, Days: 2, Seed: 41})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)

	mon, err := mcorr.NewMonitor(history, mcorr.ManagerConfig{})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	var base []mcorr.StepReport
	for k := 0; k < 2*half; k++ {
		rep, err := mon.Ingest(rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))...)
		if err != nil {
			t.Fatalf("baseline ingest: %v", err)
		}
		base = append(base, rep...)
	}
	want := bits(base)
	mon.Close()

	dir := t.TempDir()
	reg := mcorr.NewTenantRegistry(dir)
	var got []uint64
	report := func(_ string, r mcorr.StepReport) { got = append(got, math.Float64bits(r.System)) }
	tn, err := reg.CreateTenant(mcorr.TenantConfig{
		Name: "alpha", History: history, Durable: true,
		Durability: mcorr.DurabilityConfig{CheckpointEvery: 8, Fsync: mcorr.SyncNone},
		OnReport:   report,
	})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	for k := 0; k < half; k++ {
		if _, err := tn.Ingest(rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))...); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reg2 := mcorr.NewTenantRegistry(dir)
	defer reg2.Close()
	tn2, err := reg2.CreateTenant(mcorr.TenantConfig{
		Name: "alpha", Durable: true,
		Durability: mcorr.DurabilityConfig{CheckpointEvery: 8, Fsync: mcorr.SyncNone},
		OnReport:   report,
	})
	if err != nil {
		t.Fatalf("recovering CreateTenant: %v", err)
	}
	if cur := tn2.Monitor().Cursor(); !cur.Equal(day1.Add(half * timeseries.SampleStep)) {
		t.Fatalf("recovered cursor = %v", cur)
	}
	for k := half; k < 2*half; k++ {
		if _, err := tn2.Ingest(rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))...); err != nil {
			t.Fatalf("post-recovery ingest: %v", err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scored %d rows across close/recover, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: Q bits %x != baseline %x after recovery", i, got[i], want[i])
		}
	}
}

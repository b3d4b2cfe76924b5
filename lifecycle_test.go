package mcorr_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/testkit"
	"mcorr/internal/timeseries"
)

// wantClosed requires the closed error a monitor answers with after Close.
func wantClosed(t *testing.T, op string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("%s after Close: error %v, want the closed error", op, err)
	}
}

// TestMonitorLifecycleIsUniform feeds the same rows through every mode a
// pipeline can be built in — in memory, durable, durable and recovered
// mid-stream, owned by a tenant — and requires one trajectory from all
// four. The monitors among them must also
// share one lifecycle: Checkpoint is a nil no-op in memory and writes the
// file when durable, Close is idempotent, and every mutating call after it
// fails with the closed error.
func TestMonitorLifecycleIsUniform(t *testing.T) {
	const rows, half = 24, 11
	ds, history, day1 := checkpointFixture(t, 6)
	mcfg := mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}
	feed := func(mon *mcorr.Monitor, from, n int) []uint64 {
		return bits(feedRows(t, mon, ds, day1.Add(time.Duration(from)*timeseries.SampleStep), n))
	}
	// lifecycle closes the monitor twice and tries every mutating call on it.
	lifecycle := func(t *testing.T, mon *mcorr.Monitor, dir string) {
		if dir == "" {
			if err := mon.Checkpoint(); err != nil {
				t.Errorf("Checkpoint in memory: %v, want a nil no-op", err)
			}
		} else {
			path := filepath.Join(dir, "checkpoint")
			before, _ := checkpointContents(t, path)
			if err := mon.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if after, _ := checkpointContents(t, path); after.Epoch != before.Epoch+1 {
				t.Errorf("Checkpoint left epoch %d on disk, want %d", after.Epoch, before.Epoch+1)
			}
		}
		for i := 0; i < 2; i++ {
			if err := mon.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
		_, err := mon.Ingest(rowBatch(t, ds, day1.Add(rows*timeseries.SampleStep))...)
		wantClosed(t, "Ingest", err)
		_, err = mon.FlushUpTo(day1.Add((rows + 2) * timeseries.SampleStep))
		wantClosed(t, "FlushUpTo", err)
		wantClosed(t, "Checkpoint", mon.Checkpoint())
	}

	var want []uint64
	cells := []struct {
		name string
		run  func(t *testing.T) []uint64
	}{
		{"memory", func(t *testing.T) []uint64 {
			mon, err := mcorr.NewMonitor(history, mcfg)
			if err != nil {
				t.Fatalf("NewMonitor: %v", err)
			}
			got := feed(mon, 0, rows)
			lifecycle(t, mon, "")
			return got
		}},
		{"durable", func(t *testing.T) []uint64 {
			dir := t.TempDir()
			mon, err := mcorr.NewDurableMonitor(history, mcfg, mcorr.DurabilityConfig{DataDir: dir, CheckpointEvery: 7, Fsync: mcorr.SyncNone})
			if err != nil {
				t.Fatalf("NewDurableMonitor: %v", err)
			}
			got := feed(mon, 0, rows)
			lifecycle(t, mon, dir)
			return got
		}},
		{"recovered", func(t *testing.T) []uint64 {
			dcfg := mcorr.DurabilityConfig{DataDir: t.TempDir(), CheckpointEvery: 7, Fsync: mcorr.SyncNone}
			mon, err := mcorr.NewDurableMonitor(history, mcfg, dcfg)
			if err != nil {
				t.Fatalf("NewDurableMonitor: %v", err)
			}
			got := feed(mon, 0, half)
			if err := mon.Close(); err != nil {
				t.Fatalf("Close mid-stream: %v", err)
			}
			re, replayed, err := mcorr.OpenDurableMonitor(dcfg, nil)
			if err != nil {
				t.Fatalf("OpenDurableMonitor: %v", err)
			}
			if len(replayed) != 0 {
				t.Errorf("reopened with %d rows replayed, want 0", len(replayed))
			}
			got = append(got, feed(re, half, rows-half)...)
			lifecycle(t, re, dcfg.DataDir)
			return got
		}},
		{"tenant", func(t *testing.T) []uint64 {
			reg := mcorr.NewTenantRegistry("")
			defer reg.Close()
			tn, err := reg.CreateTenant(mcorr.TenantConfig{Name: "cell", History: history, Manager: mcfg})
			if err != nil {
				t.Fatalf("CreateTenant: %v", err)
			}
			var got []mcorr.StepReport
			for k := 0; k < rows; k++ {
				rep, err := tn.Ingest(rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))...)
				if err != nil {
					t.Fatalf("Tenant.Ingest row %d: %v", k, err)
				}
				got = append(got, rep...)
			}
			return bits(got)
		}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			got := cell.run(t)
			if len(got) != rows {
				t.Fatalf("scored %d rows, want %d", len(got), rows)
			}
			if want == nil {
				want = got
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: Q bits %x, the first cell's %x", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCloseLeavesNoGoroutines: closing a pipeline — a monitor in memory or
// durable, a tenant, a whole registry — ends every goroutine its
// construction started.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	ds, history, day1 := checkpointFixture(t, 6)
	t.Run("Monitor in memory", func(t *testing.T) {
		leaked := testkit.GoroutineLeakCheck(t)
		mon, err := mcorr.NewMonitor(history, mcorr.ManagerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		feedRows(t, mon, ds, day1, 3)
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		leaked()
	})
	t.Run("Monitor durable", func(t *testing.T) {
		leaked := testkit.GoroutineLeakCheck(t)
		mon, err := mcorr.NewDurableMonitor(history, mcorr.ManagerConfig{}, mcorr.DurabilityConfig{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		feedRows(t, mon, ds, day1, 3)
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		leaked()
	})
	tenant := func(reg *mcorr.Registry, name string, durable bool) *mcorr.Tenant {
		tn, err := reg.CreateTenant(mcorr.TenantConfig{Name: name, History: history, Durable: durable})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Ingest(rowBatch(t, ds, day1)...); err != nil {
			t.Fatal(err)
		}
		return tn
	}
	t.Run("Tenant", func(t *testing.T) {
		reg := mcorr.NewTenantRegistry(t.TempDir())
		defer reg.Close()
		leaked := testkit.GoroutineLeakCheck(t)
		if err := tenant(reg, "alpha", true).Close(); err != nil {
			t.Fatal(err)
		}
		leaked()
	})
	t.Run("Registry", func(t *testing.T) {
		leaked := testkit.GoroutineLeakCheck(t)
		reg := mcorr.NewTenantRegistry(t.TempDir())
		tenant(reg, "alpha", true)
		tenant(reg, "beta", false)
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		leaked()
	})
}

// TestMonitorConcurrentIngest: two goroutines each ship one machine's half
// of every row into an in-memory monitor. Every row is scored exactly once,
// by whichever call completed it, in time order.
func TestMonitorConcurrentIngest(t *testing.T) {
	const rows = 40
	ds, history, day1 := checkpointFixture(t, 6)
	mon, err := mcorr.NewMonitor(history, mcorr.ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	ids := ds.IDs()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		scored []time.Time
	)
	for _, part := range [][]mcorr.MeasurementID{ids[:3], ids[3:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rows; k++ {
				tm := day1.Add(time.Duration(k) * timeseries.SampleStep)
				var batch []mcorr.Sample
				for _, id := range part {
					s := ds.Get(id)
					if i, ok := s.IndexOf(tm); ok {
						batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[i]})
					}
				}
				reports, err := mon.Ingest(batch...)
				if err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
				mu.Lock()
				for _, r := range reports {
					scored = append(scored, r.Time)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(scored) != rows {
		t.Fatalf("scored %d rows, want %d", len(scored), rows)
	}
	seen := make(map[time.Time]bool, rows)
	for _, tm := range scored {
		if seen[tm] {
			t.Fatalf("row %s scored twice", tm)
		}
		seen[tm] = true
	}
	if want := day1.Add(rows * timeseries.SampleStep); !mon.Cursor().Equal(want) {
		t.Errorf("Cursor = %s, want %s", mon.Cursor(), want)
	}
}

// TestCreateTenantReservesName: of several concurrent CreateTenant calls for
// one durable name exactly one builds the tenant; the others are refused as
// duplicates before they open its directory, so the checkpoint on disk is
// the winner's initial one — epoch 1 — and not a loser's closing write.
func TestCreateTenantReservesName(t *testing.T) {
	const callers = 4
	_, history, _ := checkpointFixture(t, 6)
	dir := t.TempDir()
	reg := mcorr.NewTenantRegistry(dir)
	defer reg.Close()
	start := make(chan struct{})
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			<-start
			_, err := reg.CreateTenant(mcorr.TenantConfig{Name: "alpha", History: history, Durable: true,
				Durability: mcorr.DurabilityConfig{Fsync: mcorr.SyncNone}})
			errs <- err
		}()
	}
	close(start)
	won := 0
	for i := 0; i < callers; i++ {
		switch err := <-errs; {
		case err == nil:
			won++
		case !strings.Contains(err.Error(), "already exists"):
			t.Errorf("losing CreateTenant: %v, want the duplicate error", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent CreateTenant calls succeeded, want exactly 1", won, callers)
	}
	if meta, _ := checkpointContents(t, filepath.Join(mcorr.TenantDir(dir, "alpha"), "checkpoint")); meta.Epoch != 1 {
		t.Errorf("checkpoint epoch %d, want 1: a losing caller wrote over the winner's state", meta.Epoch)
	}
}

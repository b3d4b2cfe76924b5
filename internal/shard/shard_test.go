package shard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// fixtures builds a small group trace, a training slice, and the
// monitoring rows shared by the bit-identity tests.
func fixtures(t *testing.T, machines, days int, faults ...simulator.Fault) (*timeseries.Dataset, *timeseries.Dataset, []manager.Row) {
	t.Helper()
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "S", Machines: machines, Days: days, Seed: 41, Faults: faults,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	trainEnd := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, trainEnd)
	rows, err := manager.BuildRows(ds, trainEnd, timeseries.MonitoringStart.AddDate(0, 0, days))
	if err != nil {
		t.Fatalf("BuildRows: %v", err)
	}
	return ds, history, rows
}

// sameBits fails the test unless a and b are the same float64 bit
// pattern (NaN == NaN).
func sameBits(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: sharded %v (%x) != unsharded %v (%x)",
			what, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

func compareReports(t *testing.T, step int, got, want manager.StepReport) {
	t.Helper()
	sameBits(t, fmt.Sprintf("step %d system", step), got.System, want.System)
	if got.ScoredPairs != want.ScoredPairs {
		t.Fatalf("step %d scored pairs = %d, want %d", step, got.ScoredPairs, want.ScoredPairs)
	}
	if len(got.Measurements) != len(want.Measurements) {
		t.Fatalf("step %d measurements = %d, want %d", step, len(got.Measurements), len(want.Measurements))
	}
	for id, q := range want.Measurements {
		sameBits(t, fmt.Sprintf("step %d %s", step, id), got.Measurements[id], q)
	}
}

// TestShardedBitIdenticalToUnsharded is the tentpole property: for any
// shard count the coordinator's Q^a and Q trajectories are bit-identical
// to a single unsharded Manager over the same rows — including under
// adaptive mode, where mid-stream grid growth must land on the same
// models in the same order.
func TestShardedBitIdenticalToUnsharded(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "offline"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			mcfg := manager.Config{Model: core.Config{Adaptive: adaptive}, Workers: 2}
			day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
			_, history, rows := fixtures(t, 3, 2, simulator.Fault{
				ID: "f1", Machine: simulator.MachineName("S", 2), Kind: simulator.FaultLevelShift,
				Start: day1.Add(7 * time.Hour), End: day1.Add(9 * time.Hour),
			})
			ref, err := manager.New(history, mcfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer ref.Close()
			var want []manager.StepReport
			for _, row := range rows {
				want = append(want, ref.Step(row))
			}
			for _, n := range []int{1, 2, 3, 4, 5, 8} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					coord, err := New(history, Config{Shards: n, Manager: mcfg})
					if err != nil {
						t.Fatalf("New coordinator: %v", err)
					}
					defer coord.Close()
					if got := coord.NumShards(); got != n {
						t.Fatalf("NumShards = %d, want %d", got, n)
					}
					if got := len(coord.Pairs()); got != len(ref.Pairs()) {
						t.Fatalf("pairs = %d, want %d", got, len(ref.Pairs()))
					}
					for i, row := range rows {
						compareReports(t, i, coord.Step(row), want[i])
					}
					sameBits(t, "system mean", coord.SystemMean(), ref.SystemMean())
					gotMeans, wantMeans := coord.MeasurementMeans(), ref.MeasurementMeans()
					for id, q := range wantMeans {
						sameBits(t, fmt.Sprintf("mean %s", id), gotMeans[id], q)
					}
					gotLoc, wantLoc := coord.Localize(), ref.Localize()
					if len(gotLoc.Machines) != len(wantLoc.Machines) {
						t.Fatalf("localization machines = %d, want %d", len(gotLoc.Machines), len(wantLoc.Machines))
					}
					for i := range wantLoc.Machines {
						if gotLoc.Machines[i].Machine != wantLoc.Machines[i].Machine {
							t.Fatalf("localization rank %d = %s, want %s",
								i, gotLoc.Machines[i].Machine, wantLoc.Machines[i].Machine)
						}
						sameBits(t, "localization score", gotLoc.Machines[i].Score, wantLoc.Machines[i].Score)
					}
				})
			}
		})
	}
}

// TestShardPartitionCoversAllPairs checks every pair sits on the shard
// rendezvous hashing names and is found there. (That the shards' lists
// partition Pairs() is internal/shardnet's TestFleetPartitionSurface, for
// both transports.)
func TestShardPartitionCoversAllPairs(t *testing.T) {
	_, history, _ := fixtures(t, 3, 2)
	coord, err := New(history, Config{Shards: 4, Manager: manager.Config{Workers: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()
	for k := 0; k < coord.NumShards(); k++ {
		for _, p := range coord.ShardPairs(k) {
			if Assign(p.String(), 4) != k {
				t.Errorf("pair %s on shard %d, Assign says %d", p, k, Assign(p.String(), 4))
			}
		}
	}
	// Model routing finds every pair's model via the owning shard.
	ids := coord.IDs()
	if coord.Model(ids[0], ids[1]) == nil {
		t.Error("Model accessor returned nil for a trained pair")
	}
}

// TestReshardPreservesTrajectory grows and shrinks the shard count
// mid-stream and requires the trajectory to continue bit-identically to
// an unsharded run that never resharded.
func TestReshardPreservesTrajectory(t *testing.T) {
	mcfg := manager.Config{Model: core.Config{Adaptive: true}, Workers: 2}
	_, history, rows := fixtures(t, 3, 2)
	ref, err := manager.New(history, mcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ref.Close()
	coord, err := New(history, Config{Shards: 2, Manager: mcfg})
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	defer coord.Close()
	third := len(rows) / 3
	steps := []struct {
		rows []manager.Row
		newN int // reshard to this count afterwards (0 = stop)
	}{
		{rows[:third], 5},
		{rows[third : 2*third], 1},
		{rows[2*third:], 0},
	}
	i := 0
	for _, st := range steps {
		for _, row := range st.rows {
			compareReports(t, i, coord.Step(row), ref.Step(row))
			i++
		}
		if st.newN > 0 {
			before := len(coord.Pairs())
			moved, err := coord.Reshard(st.newN)
			if err != nil {
				t.Fatalf("Reshard(%d): %v", st.newN, err)
			}
			if got := coord.NumShards(); got != st.newN {
				t.Fatalf("NumShards after reshard = %d, want %d", got, st.newN)
			}
			if after := len(coord.Pairs()); after != before {
				t.Fatalf("reshard changed pair count %d → %d", before, after)
			}
			if moved < 0 || moved > before {
				t.Fatalf("moved = %d out of range [0,%d]", moved, before)
			}
		}
	}
	sameBits(t, "system mean after reshards", coord.SystemMean(), ref.SystemMean())
}

// TestPersistRoundTrip checkpoints a mid-stream coordinator, restores it,
// and requires the restored fleet to finish the stream bit-identically.
func TestPersistRoundTrip(t *testing.T) {
	mcfg := manager.Config{Model: core.Config{Adaptive: true}, Workers: 1}
	_, history, rows := fixtures(t, 2, 2)
	ref, err := manager.New(history, mcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ref.Close()
	coord, err := New(history, Config{Shards: 3, Manager: mcfg})
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	half := len(rows) / 2
	for i, row := range rows[:half] {
		compareReports(t, i, coord.Step(row), ref.Step(row))
	}
	var saved bytes.Buffer
	if err := coord.Save(&saved); err != nil {
		t.Fatalf("Save: %v", err)
	}
	coord.Close()
	restored, err := Load(&saved, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if saved.Len() != 0 {
		t.Errorf("Load left %d bytes of its own stream unread", saved.Len())
	}
	defer restored.Close()
	if got := restored.Steps(); got != ref.Steps() {
		t.Fatalf("restored steps = %d, want %d", got, ref.Steps())
	}
	for i, row := range rows[half:] {
		compareReports(t, half+i, restored.Step(row), ref.Step(row))
	}
	sameBits(t, "restored system mean", restored.SystemMean(), ref.SystemMean())
}

// TestLoadValidation exercises the snapshot error paths: every stream that
// is not exactly what Save wrote is refused as corrupt, with no shard left
// running, and a declared shard count is never taken on trust.
func TestLoadValidation(t *testing.T) {
	_, history, _ := fixtures(t, 2, 1)
	mcfg := manager.Config{Workers: 1}
	coord, err := New(history, Config{Shards: 2, Manager: mcfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()
	fewer := timeseries.NewDataset()
	for _, id := range history.IDs()[:3] {
		fewer.Add(history.Get(id))
	}
	other, err := manager.New(fewer, mcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer other.Close()
	three, err := Train(history, 3, mcfg, nil) // what a fleet of three gives each shard
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	defer closeAll(three)
	var whole, agg bytes.Buffer
	if err := coord.Save(&whole); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := coord.Aggregator.Save(&agg); err != nil {
		t.Fatalf("Aggregator.Save: %v", err)
	}
	// stream writes a header declaring n shards, then the given bodies.
	stream := func(version, n int, bodies ...*manager.Manager) []byte {
		var hdr, buf bytes.Buffer
		if err := gob.NewEncoder(&hdr).Encode(coordHeader{Version: version, Shards: n, Agg: agg.Bytes()}); err != nil {
			t.Fatal(err)
		}
		rw := wal.NewRecordWriter(&buf)
		if err := rw.WriteBlob(hdr.Bytes()); err != nil {
			t.Fatal(err)
		}
		for _, m := range bodies {
			if err := m.Save(rw); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	s0, s1 := coord.shards[0], coord.shards[1]
	if !bytes.Equal(stream(coordFormat, 2, s0, s1), whole.Bytes()) {
		t.Fatal("the hand-built stream of the intact fleet differs from Save's")
	}
	for name, data := range map[string][]byte{
		"empty stream":                    nil,
		"another stream format":           stream(coordFormat+1, 2, s0, s1),
		"no shards":                       stream(coordFormat, 0),
		"negative shard count":            stream(coordFormat, -1, s0, s1),
		"2^40 shards declared, none held": stream(coordFormat, 1<<40),
		"3 shards declared, 2 held":       stream(coordFormat, 3, three[0], three[1]),
		"ends inside the second shard":    whole.Bytes()[:whole.Len()-100],
		"shards in the wrong order":       stream(coordFormat, 2, s1, s0),
		"a shard over other measurements": stream(coordFormat, 2, s0, other),
	} {
		c, err := Load(bytes.NewReader(data), nil)
		if c != nil || !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: coordinator %v, error %v; want wal.ErrCorrupt", name, c != nil, err)
		}
	}
	if _, err := coord.Reshard(0); err == nil {
		t.Error("Reshard(0): want error")
	}
}

// TestNewValidation exercises the constructor error paths.
func TestNewValidation(t *testing.T) {
	if _, err := New(timeseries.NewDataset(), Config{Shards: 2}); err == nil {
		t.Error("empty dataset: want error")
	}
}

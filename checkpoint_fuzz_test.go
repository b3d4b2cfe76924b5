package mcorr

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// tinyCheckpoint writes a real checkpoint of a 3-measurement fleet on a
// 3-interval grid (a few KiB) and returns its bytes — a live valid seed
// next to the checked-in corpus (gen_checkpoint_corpus.go).
func tinyCheckpoint(f *testing.F) []byte {
	f.Helper()
	full, _, err := simulator.Generate(simulator.GroupConfig{Name: "Z", Machines: 1, Days: 1, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	history := timeseries.NewDataset()
	for _, id := range full.IDs()[:3] {
		history.Add(full.Get(id).Slice(timeseries.MonitoringStart, timeseries.MonitoringStart.Add(40*timeseries.SampleStep)))
	}
	dir := f.TempDir()
	mcfg := ManagerConfig{Model: ModelConfig{Adaptive: true, Grid: GridConfig{Units: 8, MaxIntervals: 3, MinIntervals: 2, EqualSplit: 3}}}
	dm, err := NewDurableMonitor(history, mcfg, DurabilityConfig{DataDir: dir, Fsync: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint"))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzCheckpointRecords throws arbitrary bytes at the checkpoint decoder —
// magic, section records, store, blobs, manager header and model records —
// exactly as OpenDurableMonitor drives it: the decoder is a function of
// these bytes alone. It must never panic, must bound every allocation by
// what the input actually holds (record lengths by wal.ChunkSize, slabs by
// their header's dims only as data arrives), and must either decode a whole
// state or fail with ErrCheckpointFormat or ErrCheckpointCorrupt —
// never hand back part of a fleet. A state that decodes must also work: its
// fleet scores the last stored row, twice so that the second time every
// chain makes a transition.
func FuzzCheckpointRecords(f *testing.F) {
	whole := tinyCheckpoint(f)
	f.Add(whole)
	f.Add(whole[:len(whole)-20]) // no end section
	f.Add(whole[:len(whole)/2])  // torn mid-record
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-200] ^= 0xff // inside the last model
	f.Add(flipped)
	f.Add([]byte(manager.CheckpointMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &pipelineState{}
		cr, err := manager.NewCheckpointReader(bytes.NewReader(data), &st.meta)
		if err == nil {
			err = st.decode(cr, nil)
		}
		if st.fleet != nil {
			if err != nil {
				t.Fatalf("decode failed (%v) but left a fleet of %d pairs behind", err, len(st.fleet.Pairs()))
			}
			step := st.store.Step()
			last := st.store.QueryAll(st.meta.Cursor.Add(-step), st.meta.Cursor)
			row := Row{Time: st.meta.Cursor, Values: map[MeasurementID]float64{}}
			for _, id := range st.fleet.IDs() {
				if s := last.Get(id); s != nil && s.Len() > 0 {
					row.Values[id] = s.Values[0]
				}
			}
			st.fleet.Step(row)
			row.Time = row.Time.Add(step)
			st.fleet.Step(row)
			st.fleet.Close()
		}
		if err == nil && st.store == nil {
			t.Fatal("decode succeeded without a store")
		}
		if err != nil && !errors.Is(err, manager.ErrCheckpointFormat) && !errors.Is(err, manager.ErrCheckpointCorrupt) {
			t.Fatalf("decode error %v is neither ErrCheckpointFormat nor ErrCheckpointCorrupt", err)
		}
	})
}

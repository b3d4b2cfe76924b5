package manager

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcorr/internal/timeseries"
)

// writeTestCheckpoint writes meta plus, when mgr is non-nil, a store-less
// file with a diagnose blob and the manager section.
func writeTestCheckpoint(t *testing.T, path string, meta CheckpointMeta, mgr *Manager) {
	t.Helper()
	err := WriteCheckpointFile(path, &meta, func(cw *CheckpointWriter) error {
		if mgr == nil {
			return nil
		}
		if err := cw.Blob(SectionDiagnose, []byte("engine-blob")); err != nil {
			return err
		}
		return cw.Stream(SectionManager, mgr.Save)
	})
	if err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")

	mgr, ds, _ := trainedManager(t, Config{}, 2)
	defer mgr.Close()
	trainEnd := timeseries.MonitoringStart.AddDate(0, 0, 1)
	if _, err := mgr.Run(ds.Slice(trainEnd, trainEnd.Add(2*time.Hour)), trainEnd, trainEnd.Add(2*time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cursor := time.Date(2008, time.June, 1, 12, 0, 0, 0, time.UTC)
	writeTestCheckpoint(t, path, CheckpointMeta{Cursor: cursor, WALSeq: 42, Steps: mgr.Steps()}, mgr)

	var got CheckpointMeta
	cr, err := OpenCheckpointFile(path, &got)
	if err != nil {
		t.Fatalf("OpenCheckpointFile: %v", err)
	}
	defer cr.Close()
	if got.WALSeq != 42 || !got.Cursor.Equal(cursor) || got.Steps != mgr.Steps() {
		t.Fatalf("meta = %+v", got)
	}
	if _, err := cr.Section(SectionManager); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("asking for the manager section where diagnose is due: %v, want ErrCheckpointCorrupt", err)
	}
	if cr, err = OpenCheckpointFile(path, &got); err != nil {
		t.Fatalf("OpenCheckpointFile: %v", err)
	}
	defer cr.Close()
	if blob, err := cr.Blob(SectionDiagnose); err != nil || string(blob) != "engine-blob" {
		t.Fatalf("diagnose blob = %q, %v", blob, err)
	}
	body, err := cr.Section(SectionManager)
	if err != nil {
		t.Fatalf("manager section: %v", err)
	}
	restored, err := LoadManager(body, nil)
	if err != nil {
		t.Fatalf("LoadManager from checkpoint: %v", err)
	}
	defer restored.Close()
	if err := cr.End(); err != nil {
		t.Fatalf("after the manager section: %v, want the end section", err)
	}
	if restored.Steps() != mgr.Steps() {
		t.Fatalf("restored steps = %d, want %d", restored.Steps(), mgr.Steps())
	}
	a, b := mgr.SystemMean(), restored.SystemMean()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("restored system mean %v != %v", b, a)
	}
}

func TestOpenCheckpointFileMissing(t *testing.T) {
	_, err := OpenCheckpointFile(filepath.Join(t.TempDir(), "nope"), &CheckpointMeta{})
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing file = %v, want ErrNoCheckpoint", err)
	}
}

// A checkpoint from before the record format (one gob value, no magic) is
// refused outright, as is anything else that does not open with the magic —
// the previous container version's included.
func TestOpenCheckpointFileRefusesOtherFormats(t *testing.T) {
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		Version int
		Manager []byte
	}{1, []byte("models")}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"legacy gob": legacy.Bytes(), "text": []byte("not a checkpoint"), "empty": nil, "MCORCKP3": []byte("MCORCKP3")} {
		path := filepath.Join(t.TempDir(), "checkpoint")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpointFile(path, &CheckpointMeta{}); !errors.Is(err, ErrCheckpointFormat) {
			t.Errorf("%s: %v, want ErrCheckpointFormat", name, err)
		}
	}
}

func TestWriteCheckpointFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint")
	writeTestCheckpoint(t, path, CheckpointMeta{WALSeq: 1}, nil)
	writeTestCheckpoint(t, path, CheckpointMeta{WALSeq: 2}, nil)
	// No temp litter survives a successful write.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory has %v, want just the checkpoint", names)
	}
	var got CheckpointMeta
	cr, err := OpenCheckpointFile(path, &got)
	if err != nil || got.WALSeq != 2 {
		t.Fatalf("read = %+v, %v; want WALSeq 2", got, err)
	}
	cr.Close()
}

// Damage behind the magic is ErrCheckpointCorrupt wherever it sits: in the
// meta section (refused at open) or in a later record (refused when read).
func TestCheckpointFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
	writeTestCheckpoint(t, path, CheckpointMeta{WALSeq: 7}, nil)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"flipped meta byte": flipByte(whole, len(CheckpointMagic)+40),
		"truncated meta":    whole[:len(CheckpointMagic)+20],
		"no end section":    whole[:len(whole)-16-len(sectionMark+sectionEnd)],
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cr, err := OpenCheckpointFile(path, &CheckpointMeta{})
		if err == nil {
			err = cr.End()
			cr.Close()
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

func flipByte(b []byte, at int) []byte {
	out := bytes.Clone(b)
	out[at] ^= 0xff
	return out
}

func TestCadence(t *testing.T) {
	base := time.Date(2026, time.January, 1, 0, 0, 0, 0, time.UTC)

	t.Run("steps", func(t *testing.T) {
		c := Cadence{EverySteps: 10}
		if c.Due(9, base) {
			t.Error("due before 10 steps")
		}
		if !c.Due(10, base) {
			t.Error("not due at 10 steps")
		}
		c.Mark(10, base)
		if c.Due(19, base) {
			t.Error("due again before another 10 steps")
		}
		if !c.Due(20, base) {
			t.Error("not due at 20 steps")
		}
	})

	t.Run("interval", func(t *testing.T) {
		c := Cadence{Interval: time.Minute}
		if c.Due(0, base) {
			t.Error("first call must anchor, not fire")
		}
		if c.Due(0, base.Add(30*time.Second)) {
			t.Error("due before the interval elapsed")
		}
		if !c.Due(0, base.Add(61*time.Second)) {
			t.Error("not due after the interval")
		}
		c.Mark(0, base.Add(61*time.Second))
		if c.Due(0, base.Add(90*time.Second)) {
			t.Error("due again too soon after Mark")
		}
	})

	t.Run("zero value never fires", func(t *testing.T) {
		var c Cadence
		if c.Due(1<<30, base.Add(1000*time.Hour)) {
			t.Error("zero cadence fired")
		}
	})
}

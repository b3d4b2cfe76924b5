package manager

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mcorr/internal/wal"
)

// CheckpointMagic opens every checkpoint file — pipeline, worker and
// -save-models alike. Its last digit moves whenever a record inside the
// container changes shape or the section list does (5: the meta section
// lost its shard count, and the manager section holds one Manager), so a
// file from another release is refused whole as ErrCheckpointFormat instead
// of failing somewhere inside as corrupt.
const CheckpointMagic = "MCORCKP5"

// checkpointBuffer sizes the buffered writer and reader the file is
// streamed through.
const checkpointBuffer = 1 << 20

// Checkpoint errors.
var (
	// ErrNoCheckpoint: no checkpoint exists yet — cold-start instead.
	ErrNoCheckpoint = errors.New("manager: no checkpoint")
	// ErrCheckpointFormat: the file does not open with CheckpointMagic — in
	// practice it was written by another release. Nothing of it is read;
	// finish (or retrain) with that release.
	ErrCheckpointFormat = errors.New("manager: checkpoint is not in the record format")
	// ErrCheckpointCorrupt: a record-format checkpoint fails to decode — a
	// damaged, missing, repeated or reordered record, a file that stops
	// before its end section, contents that contradict their own headers.
	// Recovery never proceeds from a partial decode.
	ErrCheckpointCorrupt = errors.New("manager: corrupt checkpoint")
)

// CheckpointMeta is the meta section of a pipeline checkpoint. Recovery =
// restore the store and fleet sections, replay WAL records with Seq >
// WALSeq into the store, and resume scoring at Cursor; deterministic
// scoring then reproduces the exact fitness trajectory of the
// uninterrupted run.
type CheckpointMeta struct {
	CreatedAt time.Time
	// Cursor is the timestamp of the next row to score after recovery.
	Cursor time.Time
	// WALSeq is the last WAL sequence number whose samples are reflected
	// in the store section (and therefore in the fleet's accumulators).
	WALSeq uint64
	// Steps mirrors the fleet's step count (diagnostic only).
	Steps int
	// Epoch counts the checkpoints this data directory has committed; each
	// one writes its predecessor's value plus one.
	Epoch uint64
}

// Section names, in file order (DESIGN.md §10 has the table). A section
// opens with a record holding sectionMark + name, so a decoder out of step
// with its stream cannot mistake data for a boundary. The layout is fixed:
// a pipeline checkpoint has them all — blobs of absent engines are empty —
// and a worker or -save-models file has meta, manager and end.
const (
	SectionMeta     = "meta"
	SectionStore    = "store"
	SectionDiagnose = "diagnose"
	SectionDiscover = "discover"
	SectionManager  = "manager"
	sectionEnd      = "end"
	sectionMark     = "#"
)

// AtomicWrite writes a file crash-atomically: the payload goes to a
// temporary file in the destination directory, is fsynced, renamed over
// path, and the directory is fsynced — a crash at any point leaves either
// the old file or the new one, never a torn write.
func AtomicWrite(path string, write func(w *os.File) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomic write: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomic write sync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomic write close: %w", err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomic write rename: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync() // best-effort: make the rename itself durable
		d.Close()
	}
	return nil
}

// CheckpointWriter writes the sections of one checkpoint file straight
// into its record stream: nothing but the current record is buffered.
type CheckpointWriter struct {
	rw *wal.RecordWriter
}

// Stream writes a section whose body save streams (Store.Snapshot,
// Manager.Save).
func (cw *CheckpointWriter) Stream(name string, save func(io.Writer) error) error {
	_, err := cw.rw.Write([]byte(sectionMark + name))
	if err == nil && save != nil {
		err = save(cw.rw)
	}
	if err != nil {
		return fmt.Errorf("checkpoint section %s: %w", name, err)
	}
	return nil
}

// Blob writes a section whose body is one small opaque value.
func (cw *CheckpointWriter) Blob(name string, p []byte) error {
	return cw.Stream(name, func(io.Writer) error { return cw.rw.WriteBlob(p) })
}

// WriteCheckpointFile atomically persists a checkpoint: the magic, a meta
// section holding the gob of meta, the sections body writes and the end
// section, streamed through a buffered writer under AtomicWrite — a crash
// at any point leaves either the old checkpoint or the new one.
func WriteCheckpointFile(path string, meta any, body func(*CheckpointWriter) error) error {
	start := time.Now()
	defer func() { obsCheckpointSeconds.Observe(time.Since(start).Seconds()) }()
	var mbuf bytes.Buffer // the meta value only
	if err := gob.NewEncoder(&mbuf).Encode(meta); err != nil {
		return fmt.Errorf("checkpoint meta: %w", err)
	}
	var size int64
	if err := AtomicWrite(path, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, checkpointBuffer)
		cw := &CheckpointWriter{rw: wal.NewRecordWriter(bw)}
		_, err := bw.WriteString(CheckpointMagic)
		if err == nil {
			err = cw.Blob(SectionMeta, mbuf.Bytes())
		}
		if err == nil && body != nil {
			err = body(cw)
		}
		if err == nil {
			err = cw.Stream(sectionEnd, nil)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			size, err = f.Seek(0, io.SeekCurrent)
		}
		return err
	}); err != nil {
		return err
	}
	obsCheckpoints.Inc()
	obsCheckpointBytes.Set(float64(size))
	return nil
}

// CheckpointReader reads a checkpoint file section by section, in file
// order, never holding more than the record being decoded.
type CheckpointReader struct {
	rr *wal.RecordReader
	f  *os.File // nil over a plain reader
}

// OpenCheckpointFile opens a checkpoint written by WriteCheckpointFile and
// decodes its meta section into meta. A missing file is ErrNoCheckpoint, a
// file without the magic ErrCheckpointFormat, anything else that fails to
// decode ErrCheckpointCorrupt — recovering from a half-understood snapshot
// would silently fork the trajectory. A reader may stop before End (a
// store-only reader never touches the models); Close when done.
func OpenCheckpointFile(path string, meta any) (*CheckpointReader, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("checkpoint read: %w", err)
	}
	cr, err := NewCheckpointReader(bufio.NewReaderSize(f, checkpointBuffer), meta)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cr.f = f
	return cr, nil
}

// NewCheckpointReader is OpenCheckpointFile over an already open stream.
func NewCheckpointReader(r io.Reader, meta any) (*CheckpointReader, error) {
	var magic [len(CheckpointMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != CheckpointMagic {
		return nil, ErrCheckpointFormat
	}
	cr := &CheckpointReader{rr: wal.NewRecordReader(r)}
	blob, err := cr.Blob(SectionMeta)
	if err != nil {
		return nil, err
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(meta); err != nil {
		return nil, CorruptCheckpoint(SectionMeta, err)
	}
	return cr, nil
}

// CorruptCheckpoint wraps a section's decode failure as
// ErrCheckpointCorrupt, keeping the cause matchable.
func CorruptCheckpoint(section string, err error) error {
	return fmt.Errorf("%w: section %s: %w", ErrCheckpointCorrupt, section, err)
}

// Section reads the record that opens the named section — the next one of
// the fixed layout — and returns the stream its body is read from: hand it
// to tsdb.Restore or LoadManager and wrap their error with
// CorruptCheckpoint. A file that stops or holds anything else is corrupt.
func (cr *CheckpointReader) Section(name string) (io.Reader, error) {
	rec, err := cr.rr.Next()
	if err == nil && string(rec) != sectionMark+name {
		err = fmt.Errorf("record %q where the section was due", rec[:min(len(rec), 32)])
	}
	if err != nil {
		return nil, CorruptCheckpoint(name, err)
	}
	return cr.rr, nil
}

// Blob reads the named section when its body is one opaque value.
func (cr *CheckpointReader) Blob(name string) ([]byte, error) {
	if _, err := cr.Section(name); err != nil {
		return nil, err
	}
	p, err := cr.rr.ReadBlob()
	if err != nil {
		return nil, CorruptCheckpoint(name, err)
	}
	return p, nil
}

// End reads the end section, which closes every checkpoint file.
func (cr *CheckpointReader) End() error {
	_, err := cr.Section(sectionEnd)
	return err
}

// Close releases the underlying file, if any.
func (cr *CheckpointReader) Close() error {
	if cr.f == nil {
		return nil
	}
	return cr.f.Close()
}

// Cadence decides when the next automatic checkpoint is due: after
// EverySteps scored rows, or after Interval of wall time, whichever comes
// first. The zero value never fires; Mark records each checkpoint taken.
type Cadence struct {
	// EverySteps triggers a checkpoint after this many scored rows
	// (0 disables the step trigger).
	EverySteps int
	// Interval triggers a checkpoint after this much wall time
	// (0 disables the time trigger).
	Interval time.Duration

	lastSteps int
	lastTime  time.Time
}

// Due reports whether a checkpoint should be taken given the current
// scored-row count and wall time.
func (c *Cadence) Due(steps int, now time.Time) bool {
	if c.EverySteps > 0 && steps-c.lastSteps >= c.EverySteps {
		return true
	}
	if c.Interval > 0 {
		if c.lastTime.IsZero() {
			// First call anchors the timer instead of firing immediately.
			c.lastTime = now
			return false
		}
		if now.Sub(c.lastTime) >= c.Interval {
			return true
		}
	}
	return false
}

// Mark records that a checkpoint was taken at the given progress point.
func (c *Cadence) Mark(steps int, now time.Time) {
	c.lastSteps = steps
	c.lastTime = now
}

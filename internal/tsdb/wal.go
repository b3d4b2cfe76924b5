package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// ErrBadWALRecord is returned when a WAL payload does not decode as a
// sample batch.
var ErrBadWALRecord = errors.New("tsdb: malformed WAL sample record")

// maxWALBatch bounds samples per WAL record, so hostile or damaged
// payloads cannot force a huge allocation during replay.
const maxWALBatch = 1 << 16

// EncodeWALBatch serializes a sample batch into a WAL record payload.
// Layout: uint32 count, then per sample: string machine, string metric
// (uint16 length + bytes each), int64 unix-nano, float64 bits — the same
// shape as the collector wire format, kept separate so the store does not
// depend on the network layer.
func EncodeWALBatch(batch []Sample) ([]byte, error) {
	return appendWALBatch(make([]byte, 0, 4+len(batch)*40), batch)
}

// appendWALBatch appends the WAL record payload of batch to buf.
func appendWALBatch(buf []byte, batch []Sample) ([]byte, error) {
	if len(batch) > maxWALBatch {
		return nil, fmt.Errorf("tsdb: WAL batch of %d samples exceeds limit %d", len(batch), maxWALBatch)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(batch)))
	for _, s := range batch {
		if len(s.ID.Machine) > math.MaxUint16 || len(s.ID.Metric) > math.MaxUint16 {
			return nil, fmt.Errorf("tsdb: WAL sample id too long (%s)", s.ID)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s.ID.Machine)))
		buf = append(buf, s.ID.Machine...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s.ID.Metric)))
		buf = append(buf, s.ID.Metric...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.Time.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Value))
	}
	return buf, nil
}

// DecodeWALBatch parses a payload written by EncodeWALBatch. It never
// panics on damaged input and bounds its allocations.
func DecodeWALBatch(payload []byte) ([]Sample, error) {
	if len(payload) < 4 {
		return nil, ErrBadWALRecord
	}
	count := binary.BigEndian.Uint32(payload[:4])
	if count > maxWALBatch {
		return nil, fmt.Errorf("batch of %d samples: %w", count, ErrBadWALRecord)
	}
	p := payload[4:]
	out := make([]Sample, 0, count)
	for i := uint32(0); i < count; i++ {
		machine, rest, err := cutString(p)
		if err != nil {
			return nil, fmt.Errorf("sample %d machine: %w", i, err)
		}
		metric, rest, err := cutString(rest)
		if err != nil {
			return nil, fmt.Errorf("sample %d metric: %w", i, err)
		}
		if len(rest) < 16 {
			return nil, fmt.Errorf("sample %d body: %w", i, ErrBadWALRecord)
		}
		ns := int64(binary.BigEndian.Uint64(rest[:8]))
		val := math.Float64frombits(binary.BigEndian.Uint64(rest[8:16]))
		out = append(out, Sample{
			ID:    timeseries.MeasurementID{Machine: machine, Metric: metric},
			Time:  time.Unix(0, ns).UTC(),
			Value: val,
		})
		p = rest[16:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(p), ErrBadWALRecord)
	}
	return out, nil
}

func cutString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, ErrBadWALRecord
	}
	n := int(binary.BigEndian.Uint16(p[:2]))
	if len(p) < 2+n {
		return "", nil, ErrBadWALRecord
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// AttachWAL makes the store durable: from now on every successfully
// applied sample is appended to l before Append/AppendBatch return (and
// therefore before any collector ack is sent). Appends and log writes are
// serialized under the store lock, so replay order matches apply order.
// Bulk history loads (LoadDataset) and snapshot restores are deliberately
// not logged — they re-create state that is already durable elsewhere.
func (s *Store) AttachWAL(l *wal.Log) {
	s.mu.Lock()
	s.wal = l
	s.mu.Unlock()
}

// walAppendLocked logs the applied prefix of a batch. Caller holds s.mu.
// The record is encoded into s.walBuf, which the next call reuses: Append
// has copied the payload into its own frame by the time it returns.
func (s *Store) walAppendLocked(applied []Sample) error {
	payload, err := appendWALBatch(s.walBuf[:0], applied)
	if err != nil {
		return err
	}
	s.walBuf = payload
	if _, err := s.wal.Append(payload); err != nil {
		return fmt.Errorf("tsdb wal append: %w", err)
	}
	return nil
}

// ReplayWAL replays the sample records of the log directory dir with
// sequence numbers > after into the store — the recovery step that brings
// a checkpointed store back to the moment of the crash. Replay is
// idempotent: samples the store already holds (duplicates, or anything
// older than the retained window) are skipped, not errors. It returns the
// samples applied and skipped.
func (s *Store) ReplayWAL(dir string, after uint64) (applied, skipped int, err error) {
	_, err = wal.Replay(dir, after, func(rec wal.Record) error {
		batch, derr := DecodeWALBatch(rec.Data)
		if derr != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, derr)
		}
		s.mu.Lock()
		for _, sm := range batch {
			if aerr := s.appendLocked(sm); aerr != nil {
				skipped++
			} else {
				applied++
			}
		}
		s.mu.Unlock()
		return nil
	})
	if applied > 0 {
		obsReplayed.Add(uint64(applied))
	}
	if err != nil {
		return applied, skipped, fmt.Errorf("tsdb replay: %w", err)
	}
	return applied, skipped, nil
}

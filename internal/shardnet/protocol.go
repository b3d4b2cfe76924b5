// Package shardnet runs the sharded scoring fabric across processes: a
// coordinator owning the authoritative Aggregator dials one control
// connection per shard worker and everything travels over it in the
// collector's frame format — the trained models, one row frame per step,
// the worker's per-pair outcomes as a native binary frame in reply, and
// the model-state commands. Ownership is the rendezvous partition fixed at
// New for the coordinator's lifetime: no pair ever moves between workers.
// Every exchange is request/response under the coordinator's step lock, so
// only coordinator → worker reachability is needed and one row is in
// flight per fabric. The merged Q^a/Q trajectory is bit-identical
// (Float64bits) to the in-process fabric for any worker count: scoring
// advances the same models in the same canonical pair order, and
// aggregation happens once, centrally, in shard.Fabric — the round the
// in-process shard Coordinator runs, over worker connections.
package shardnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// Control-channel message types, layered on the collector frame format.
// The collector reserves types below 16 for agent traffic; ReadFrame
// passes unknown types through untouched, so both protocols share one
// header, magic and size limit.
//
// Types 16, 28 and 30 were the assigns of earlier builds: 16 of those whose
// workers dialled a second connection back to the coordinator to return
// outcomes, 28 of those whose model records held all n² weights (record
// format 3), 30 of those whose outcome frames carried a rebalance plan
// version. All stay retired: a peer from such a build answers "expected
// assign" and the handshake fails at once — before a state transfer it
// could not decode, or a Step waiting for outcomes nobody writes. Types
// 20–24, those builds' pair-migration commands, are not reused.
const (
	// MsgShardReady (worker → coordinator) answers an assign or a state
	// transfer: gob readyMsg reporting the worker's recovered state.
	MsgShardReady collector.MsgType = 17
	// MsgShardState (coordinator → worker) carries one chunk of a trained
	// manager's record stream (manager.Save), decoded as it arrives; the
	// first payload byte flags the last chunk.
	MsgShardState collector.MsgType = 18
	// MsgShardRow (coordinator → worker) is one synchronized row in the
	// compact binary layout of encodeRowFrame; the worker answers with the
	// row's MsgShardOutcomes.
	MsgShardRow collector.MsgType = 19
	// MsgShardDone (worker → coordinator) acknowledges, with an empty
	// payload, an adaptive or reset-chains command once it is checkpointed.
	MsgShardDone collector.MsgType = 25
	// MsgShardAdaptive (coordinator → worker) toggles online model
	// updating (gob bool); answered, once checkpointed, with MsgShardDone.
	MsgShardAdaptive collector.MsgType = 26
	// MsgShardResetChains (coordinator → worker) clears every model's
	// Markov position; answered, once checkpointed, with MsgShardDone.
	MsgShardResetChains collector.MsgType = 27
	// MsgShardAssign (coordinator → worker) opens a control session: gob
	// assignMsg naming the worker's shard, the fabric run and the expected
	// pair set.
	MsgShardAssign collector.MsgType = 31
	// MsgShardOutcomes (worker → coordinator) answers a row with the
	// shard's outcome set in the binary layout of appendOutcomeFrames —
	// one frame, more only when the set would exceed the frame size limit.
	MsgShardOutcomes collector.MsgType = 29
)

// readBuffer sizes the reader on each end of a control connection: a row
// or outcome frame of a few hundred pairs arrives in one read.
const readBuffer = 16 << 10

// blobChunk bounds one state transfer chunk, comfortably under the
// collector's MaxFrameSize.
const blobChunk = 256 << 10

// assignMsg opens (or re-opens) a worker's control session.
type assignMsg struct {
	// RunID identifies one coordinator lifetime. Workers ignore
	// checkpoints from other runs, so a stale data-dir never resurrects
	// models from a previous experiment.
	RunID string
	// K and N are the worker's shard index and the total shard count.
	K, N int
	// CheckpointEvery is the worker checkpoint cadence in rows.
	CheckpointEvery int
	// IDs is the fleet's canonical measurement order; row frames index
	// into it.
	IDs []timeseries.MeasurementID
	// Pairs is the pair set the partition assigns to shard K, canonical
	// order.
	Pairs []manager.Pair
}

// readyMsg reports a worker's state after an assign or state transfer.
type readyMsg struct {
	// HaveState is false when the worker holds no usable model state for
	// this run and needs a MsgShardState transfer.
	HaveState bool
	// AppliedSeq is the last row sequence the worker knows the coordinator
	// merged; replay must resume at AppliedSeq+1.
	AppliedSeq uint64
	// Pairs is the worker's actual pair set, which must be the assign's.
	Pairs []manager.Pair
	// Err, when set, is why the worker refused the assign.
	Err string
}

// writeGob frames one gob-encoded control message.
func writeGob(conn io.Writer, msgType collector.MsgType, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("shardnet: encode %d: %w", byte(msgType), err)
	}
	return collector.WriteFrame(conn, collector.Frame{Type: msgType, Payload: buf.Bytes()})
}

// decodeGob decodes a control payload into v.
func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// chunkWriter streams bytes as MsgShardState frames of at most blobChunk
// bytes: each frame's first payload byte flags the final chunk, which
// sendStream sends last. One frame buffer is reused for the whole
// transfer, and it is the only copy of the stream the sender ever holds.
type chunkWriter struct {
	conn io.Writer
	buf  []byte // flag byte + pending chunk
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	for off := 0; off < len(p); {
		n := copy(cw.buf[len(cw.buf):cap(cw.buf)], p[off:])
		cw.buf = cw.buf[:len(cw.buf)+n]
		off += n
		if len(cw.buf) == cap(cw.buf) {
			if err := cw.flush(0); err != nil {
				return off, err
			}
		}
	}
	return len(p), nil
}

func (cw *chunkWriter) flush(last byte) error {
	cw.buf[0] = last
	err := collector.WriteFrame(cw.conn, collector.Frame{Type: MsgShardState, Payload: cw.buf})
	cw.buf = cw.buf[:1]
	return err
}

// sendStream runs one chunked transfer: whatever save writes, then the
// final chunk.
func sendStream(conn io.Writer, save func(io.Writer) error) error {
	cw := &chunkWriter{conn: conn, buf: make([]byte, 1, 1+blobChunk)}
	if err := save(cw); err != nil {
		return err
	}
	return cw.flush(1)
}

// chunkReader is the receiving end of a chunkWriter: an io.Reader over the
// transfer's MsgShardState frames on conn, so the stream is decoded while
// chunks arrive instead of after they have been assembled.
type chunkReader struct {
	conn io.Reader
	rest []byte
	last bool
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	for len(cr.rest) == 0 {
		if cr.last {
			return 0, io.EOF
		}
		f, err := collector.ReadFrame(cr.conn)
		switch {
		case err != nil:
			return 0, err
		case f.Type != MsgShardState:
			return 0, fmt.Errorf("shardnet: expected type %d chunk, got %d", byte(MsgShardState), byte(f.Type))
		case len(f.Payload) < 1:
			return 0, fmt.Errorf("shardnet: empty stream chunk")
		}
		cr.last, cr.rest = f.Payload[0] == 1, f.Payload[1:]
	}
	n := copy(p, cr.rest)
	cr.rest = cr.rest[n:]
	return n, nil
}

// finish consumes the final chunk once the stream's decoder is done; bytes
// the decoder did not ask for are a protocol error.
func (cr *chunkReader) finish() error {
	n, err := io.Copy(io.Discard, cr)
	if err == nil && n != 0 {
		err = fmt.Errorf("shardnet: %d stray bytes after a stream", n)
	}
	return err
}

// maxMeasurements is how many measurements a row frame can address: its
// measurement index is a u16, so New refuses a wider fleet instead of
// letting measurement 65 536 alias measurement 0 on the workers.
const maxMeasurements = 1 << 16

// Row frame layout: u64 seq, i64 unix-nanos, u32 count, then count ×
// {u16 measurement index, u64 value bits}, the index into assignMsg.IDs.
// Only measurements with a value are encoded; the rest — absent or NaN, one
// and the same to scoring — are the row's monitoring gaps.

// encodeRowFrame packs one dense row (vals in the fleet's canonical
// measurement order, at most maxMeasurements long, NaN for a gap). The same
// bytes are broadcast to every worker and retained for replay.
func encodeRowFrame(seq uint64, t time.Time, vals []float64) []byte {
	buf := make([]byte, 20, 20+10*len(vals))
	binary.BigEndian.PutUint64(buf[0:], seq)
	binary.BigEndian.PutUint64(buf[8:], uint64(t.UnixNano()))
	for i, v := range vals {
		if v != v { // NaN
			continue
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(i))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	binary.BigEndian.PutUint32(buf[16:], uint32((len(buf)-20)/10))
	return buf
}

// decodeRowFrame unpacks a row frame into the caller's dense row: vals[i]
// is measurement i's value, NaN where the frame has none. Every index is
// checked against len(vals) before it is used.
func decodeRowFrame(payload []byte, vals []float64) (seq uint64, t time.Time, err error) {
	if len(payload) < 20 {
		return 0, time.Time{}, fmt.Errorf("shardnet: row frame too short (%d bytes)", len(payload))
	}
	seq = binary.BigEndian.Uint64(payload[0:])
	t = time.Unix(0, int64(binary.BigEndian.Uint64(payload[8:]))).UTC()
	n := int(binary.BigEndian.Uint32(payload[16:]))
	if len(payload) != 20+10*n {
		return 0, time.Time{}, fmt.Errorf("shardnet: row frame length %d does not match count %d", len(payload), n)
	}
	for i := range vals {
		vals[i] = math.NaN()
	}
	for cell := payload[20:]; len(cell) > 0; cell = cell[10:] {
		idx := int(binary.BigEndian.Uint16(cell))
		if idx >= len(vals) {
			return 0, time.Time{}, fmt.Errorf("shardnet: row measurement index %d out of range", idx)
		}
		vals[idx] = math.Float64frombits(binary.BigEndian.Uint64(cell[2:]))
	}
	return seq, t, nil
}

// Outcome frame layout: u64 row seq, u32 total outcome count of the shard,
// u32 offset and u32 count of this frame's slice of them, then count × 17
// bytes {u64 fitness bits, u64 prob bits, flags}, in the shard's canonical
// local pair order.
const (
	outcomeHeader = 20
	outcomeSize   = 17
	// maxOutcomesPerFrame is what fits under the collector's frame limit:
	// 61 679 pairs, so a shard's set is one frame in any fleet seen so far.
	maxOutcomesPerFrame = (collector.MaxFrameSize - outcomeHeader) / outcomeSize

	flagScored byte = 1 << 0
	flagGap    byte = 1 << 1
	flagGrown  byte = 1 << 2
	flagSteady byte = 1 << 3
)

// appendOutcomeFrames encodes a worker's outcome set for one row (local
// canonical pair order) as MsgShardOutcomes payloads laid back to back in
// buf[:0] — an empty shard still answers with one empty frame. The worker
// keeps the returned buffer until the next row is scored, both to reuse
// it and to answer a replay of the row without re-stepping a model.
func appendOutcomeFrames(buf []byte, seq uint64, outs []manager.Outcome) []byte {
	buf = buf[:0]
	for off := 0; ; off += maxOutcomesPerFrame {
		chunk := outs[off:]
		if len(chunk) > maxOutcomesPerFrame {
			chunk = chunk[:maxOutcomesPerFrame]
		}
		buf = binary.BigEndian.AppendUint64(buf, seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(outs)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(off))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(chunk)))
		for _, o := range chunk {
			var flags byte
			if o.Scored {
				flags |= flagScored
			}
			if o.Gap {
				flags |= flagGap
			}
			if o.Grown {
				flags |= flagGrown
			}
			if o.Steady {
				flags |= flagSteady
			}
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(o.Fitness))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(o.Prob))
			buf = append(buf, flags)
		}
		if off+len(chunk) == len(outs) {
			return buf
		}
	}
}

// writeOutcomeFrames sends the payloads appendOutcomeFrames laid out in
// buf, one frame each.
func writeOutcomeFrames(w io.Writer, buf []byte) error {
	for len(buf) > 0 {
		n := outcomeHeader + outcomeSize*int(binary.BigEndian.Uint32(buf[16:]))
		if err := collector.WriteFrame(w, collector.Frame{Type: MsgShardOutcomes, Payload: buf[:n]}); err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// outcomeFrame is one decoded MsgShardOutcomes payload: the validated
// header and the undecoded cells, which At reads in place.
type outcomeFrame struct {
	Seq                  uint64
	Total, Offset, Count int
	cells                []byte
}

// decodeOutcomeFrame validates one outcome payload. Nothing is allocated
// or indexed from its counts: the payload length must match Count, and
// Offset+Count must fit Total — empty only for an empty shard, so a reader
// summing counts up to Total always advances — before any caller touches
// a cell.
func decodeOutcomeFrame(payload []byte) (outcomeFrame, error) {
	if len(payload) < outcomeHeader {
		return outcomeFrame{}, fmt.Errorf("shardnet: outcome frame too short (%d bytes)", len(payload))
	}
	total := binary.BigEndian.Uint32(payload[8:])
	offset := binary.BigEndian.Uint32(payload[12:])
	count := binary.BigEndian.Uint32(payload[16:])
	if uint64(len(payload)) != outcomeHeader+outcomeSize*uint64(count) {
		return outcomeFrame{}, fmt.Errorf("shardnet: outcome frame length %d does not match count %d", len(payload), count)
	}
	if uint64(offset)+uint64(count) > uint64(total) || (count == 0 && total != 0) {
		return outcomeFrame{}, fmt.Errorf("shardnet: outcome frame [%d, %d) of total %d", offset, uint64(offset)+uint64(count), total)
	}
	return outcomeFrame{
		Seq:    binary.BigEndian.Uint64(payload[0:]),
		Total:  int(total),
		Offset: int(offset),
		Count:  int(count),
		cells:  payload[outcomeHeader:],
	}, nil
}

// At decodes the frame's i-th outcome, 0 ≤ i < Count.
func (f outcomeFrame) At(i int) manager.Outcome {
	cell := f.cells[outcomeSize*i:]
	flags := cell[16]
	return manager.Outcome{
		Fitness: math.Float64frombits(binary.BigEndian.Uint64(cell[0:])),
		Prob:    math.Float64frombits(binary.BigEndian.Uint64(cell[8:])),
		Scored:  flags&flagScored != 0,
		Gap:     flags&flagGap != 0,
		Grown:   flags&flagGrown != 0,
		Steady:  flags&flagSteady != 0,
	}
}

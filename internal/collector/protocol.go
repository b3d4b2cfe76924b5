package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// Protocol constants.
const (
	// Magic opens every frame.
	Magic uint32 = 0x4d434f52 // "MCOR"
	// Version is the protocol version byte.
	Version byte = 1
	// MaxFrameSize bounds a frame payload; larger frames are rejected to
	// protect the server from malformed or hostile peers.
	MaxFrameSize = 1 << 20
	// MaxBatch bounds samples per data frame.
	MaxBatch = 4096
)

// MsgType identifies a frame's payload.
type MsgType byte

const (
	// MsgHello introduces an agent (payload: agent name, optionally
	// followed by a NUL byte and a tenant name — see EncodeHello).
	MsgHello MsgType = iota + 1
	// MsgSamples carries a batch of samples.
	MsgSamples
	// MsgHeartbeat is a keepalive (payload: unix-nano timestamp).
	MsgHeartbeat
	// MsgBye announces a graceful disconnect (no payload).
	MsgBye
	// MsgAck confirms receipt of a samples frame (payload: count).
	MsgAck
)

// String returns the message type's name.
func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "hello"
	case MsgSamples:
		return "samples"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgBye:
		return "bye"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// Protocol errors.
var (
	ErrBadMagic   = errors.New("collector: bad frame magic")
	ErrBadVersion = errors.New("collector: unsupported protocol version")
	ErrFrameSize  = errors.New("collector: frame exceeds size limit")
	ErrTruncated  = errors.New("collector: truncated payload")
)

// Frame is one protocol message.
type Frame struct {
	Type    MsgType
	Payload []byte
}

// frameHeaderSize is the fixed header every frame opens with: magic,
// version, type and the payload length.
const frameHeaderSize = 10

// smallPayload is the largest payload WriteFrame copies behind the header
// into one buffer; a larger one goes out beside it as net.Buffers. Acks,
// heartbeats, hellos and byes are all well under it.
const smallPayload = 64

// putFrameHeader fills hdr[:frameHeaderSize] for a payload of n bytes.
func putFrameHeader(hdr []byte, t MsgType, n int) {
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = Version
	hdr[5] = byte(t)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(n))
}

// WriteFrame serializes a frame to w in one call, so the peer never wakes
// on a header alone: a small payload is copied behind the header, a large
// one is sent with it as net.Buffers — a single writev on a TCP
// connection. Either way the call allocates once.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return fmt.Errorf("write %s frame of %d bytes: %w", f.Type, len(f.Payload), ErrFrameSize)
	}
	var err error
	if len(f.Payload) <= smallPayload {
		var buf [frameHeaderSize + smallPayload]byte
		putFrameHeader(buf[:], f.Type, len(f.Payload))
		n := copy(buf[frameHeaderSize:], f.Payload)
		_, err = w.Write(buf[:frameHeaderSize+n])
	} else {
		// The header and the slices net.Buffers needs share one allocation.
		v := new(struct {
			hdr  [frameHeaderSize]byte
			vec  [2][]byte
			bufs net.Buffers
		})
		putFrameHeader(v.hdr[:], f.Type, len(f.Payload))
		v.vec = [2][]byte{v.hdr[:], f.Payload}
		v.bufs = v.vec[:]
		_, err = v.bufs.WriteTo(w)
	}
	if err != nil {
		return fmt.Errorf("write %s frame: %w", f.Type, err)
	}
	return nil
}

// ReadFrame reads one frame from r, enforcing the size limit. The payload
// is freshly allocated; a connection's read loop uses readFrameInto.
func ReadFrame(r io.Reader) (Frame, error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

// readFrameInto reads one frame from r into *buf, growing it when the
// frame is larger than any before: the returned payload aliases *buf and
// is valid until the next call with the same buffer. The header is read
// into *buf too, so a warm buffer makes the read allocation-free.
func readFrameInto(r io.Reader, buf *[]byte) (Frame, error) {
	if cap(*buf) < frameHeaderSize {
		*buf = make([]byte, frameHeaderSize)
	}
	hdr := (*buf)[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err // io.EOF propagates untouched for clean close
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return Frame{}, ErrBadMagic
	}
	if hdr[4] != Version {
		return Frame{}, fmt.Errorf("version %d: %w", hdr[4], ErrBadVersion)
	}
	n := binary.BigEndian.Uint32(hdr[6:10])
	if n > MaxFrameSize {
		return Frame{}, fmt.Errorf("payload of %d bytes: %w", n, ErrFrameSize)
	}
	f := Frame{Type: MsgType(hdr[5])}
	if n > 0 {
		if uint32(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		f.Payload = (*buf)[:n]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("read %d-byte payload: %w", n, ErrTruncated)
		}
	}
	return f, nil
}

// EncodeSamples serializes a batch of samples into a MsgSamples payload.
// Layout: uint32 count, then per sample: string machine, string metric,
// int64 unix-nano, float64 value; strings are uint16 length + bytes.
func EncodeSamples(batch []tsdb.Sample) ([]byte, error) {
	return appendSamples(make([]byte, 0, 4+len(batch)*40), batch)
}

// appendSamples appends the MsgSamples payload of batch to buf — behind a
// reserved frame header, in Agent.sendOne — and enforces the batch and
// frame limits on the payload alone.
func appendSamples(buf []byte, batch []tsdb.Sample) ([]byte, error) {
	if len(batch) > MaxBatch {
		return nil, fmt.Errorf("encode %d samples: exceeds batch limit %d", len(batch), MaxBatch)
	}
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(batch)))
	for _, s := range batch {
		var err error
		if buf, err = appendString(buf, s.ID.Machine); err != nil {
			return nil, err
		}
		if buf, err = appendString(buf, s.ID.Metric); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.Time.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Value))
	}
	if n := len(buf) - start; n > MaxFrameSize {
		return nil, fmt.Errorf("encoded batch of %d bytes: %w", n, ErrFrameSize)
	}
	return buf, nil
}

func appendString(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("string of %d bytes exceeds limit", len(s))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

// maxInterned bounds a connection's ID table (see internTable). Past it,
// IDs not yet in the table are decoded into fresh strings, as
// DecodeSamples does.
const maxInterned = 1 << 16

// DecodeSamples parses a MsgSamples payload into a new batch.
func DecodeSamples(payload []byte) ([]tsdb.Sample, error) {
	return decodeSamplesInto(nil, payload, nil)
}

// internTable is one connection's measurement IDs, interned by their wire
// bytes (both length-prefixed strings, so no two splits of the same
// characters share a key), each beside the sink handle its last append
// resolved it to: a known ID costs a lookup and no allocation, and reaches
// the sink with its handle as the sample's Ref. The table grows up to
// maxInterned IDs.
type internTable struct {
	ids map[string]*interned
	// used[i] is the entry of the last decoded batch's sample i, nil for
	// one past the bound.
	used []*interned
}

type interned struct {
	id  timeseries.MeasurementID
	ref uint32
}

func newInternTable() *internTable {
	return &internTable{ids: make(map[string]*interned)}
}

// keep records the handles the sink wrote into the batch last decoded
// through t.
func (t *internTable) keep(batch []tsdb.Sample) {
	for i, in := range t.used[:len(batch)] {
		if in != nil {
			in.ref = batch[i].Ref
		}
	}
}

// decodeSamplesInto parses a MsgSamples payload into dst[:0], growing it
// only past its capacity, and interns its IDs in tab when tab is non-nil.
func decodeSamplesInto(dst []tsdb.Sample, payload []byte, tab *internTable) ([]tsdb.Sample, error) {
	if len(payload) < 4 {
		return nil, ErrTruncated
	}
	count := binary.BigEndian.Uint32(payload[:4])
	if count > MaxBatch {
		return nil, fmt.Errorf("batch of %d samples exceeds limit %d", count, MaxBatch)
	}
	p := payload[4:]
	out := dst[:0]
	if uint32(cap(out)) < count {
		out = make([]tsdb.Sample, 0, count)
	}
	if tab != nil {
		tab.used = tab.used[:0]
	}
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
			return nil, fmt.Errorf("sample %d body: %w", i, ErrTruncated)
		}
		sm := tsdb.Sample{
			Time:  time.Unix(0, int64(binary.BigEndian.Uint64(rest[:8]))).UTC(),
			Value: math.Float64frombits(binary.BigEndian.Uint64(rest[8:16])),
		}
		var in *interned
		if tab != nil {
			key := p[:len(p)-len(rest)]
			if in = tab.ids[string(key)]; in == nil && len(tab.ids) < maxInterned {
				in = &interned{id: timeseries.MeasurementID{Machine: string(machine), Metric: string(metric)}}
				tab.ids[string(key)] = in
			}
			tab.used = append(tab.used, in)
		}
		if in != nil {
			sm.ID, sm.Ref = in.id, in.ref
		} else {
			sm.ID = timeseries.MeasurementID{Machine: string(machine), Metric: string(metric)}
		}
		out = append(out, sm)
		p = rest[16:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(p), ErrTruncated)
	}
	return out, nil
}

// cutString splits one uint16-length-prefixed string off p, without
// copying it.
func cutString(p []byte) ([]byte, []byte, error) {
	if len(p) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(p[:2]))
	if len(p) < 2+n {
		return nil, nil, ErrTruncated
	}
	return p[2 : 2+n], p[2+n:], nil
}

// helloSep separates the agent name from the tenant name in a MsgHello
// payload. NUL cannot occur in either name, so the legacy payload (the
// bare agent name) stays unambiguous.
const helloSep = 0x00

// EncodeHello serializes a hello payload. With an empty tenant the
// payload is the bare agent name — byte-identical to the pre-tenant
// wire format, so old servers keep accepting new agents that don't opt
// into tenancy.
func EncodeHello(agent, tenant string) []byte {
	if tenant == "" {
		return []byte(agent)
	}
	buf := make([]byte, 0, len(agent)+1+len(tenant))
	buf = append(buf, agent...)
	buf = append(buf, helloSep)
	return append(buf, tenant...)
}

// DecodeHello parses a hello payload into the agent name and the tenant
// name. A payload with no separator is a legacy hello: the whole
// payload is the agent name and the tenant is "" (which servers map to
// the default tenant).
func DecodeHello(payload []byte) (agent, tenant string) {
	if i := bytes.IndexByte(payload, helloSep); i >= 0 {
		return string(payload[:i]), string(payload[i+1:])
	}
	return string(payload), ""
}

// EncodeHeartbeat serializes a heartbeat payload.
func EncodeHeartbeat(t time.Time) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(t.UnixNano()))
}

// DecodeHeartbeat parses a heartbeat payload.
func DecodeHeartbeat(payload []byte) (time.Time, error) {
	if len(payload) != 8 {
		return time.Time{}, ErrTruncated
	}
	return time.Unix(0, int64(binary.BigEndian.Uint64(payload))).UTC(), nil
}

// EncodeAck serializes a sample-count acknowledgment (the legacy 4-byte
// form, no throttle hint).
func EncodeAck(n int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(n))
}

// DecodeAck parses an acknowledgment payload, returning only the stored
// count. Both the legacy 4-byte form and the extended form carrying a
// throttle hint (see AckInfo) are accepted.
func DecodeAck(payload []byte) (int, error) {
	info, err := DecodeAckInfo(payload)
	return info.Stored, err
}

// AckInfo is the full content of an ack frame: the count of samples the
// server stored, plus an optional server-advertised throttle hint. The
// hint is advisory flow control — a saturated server asks the agent to
// back off (Delay) and/or cap its next batch (Credit) instead of being
// hammered with immediate retries.
type AckInfo struct {
	// Stored is how many leading samples of the batch the server stored.
	Stored int
	// Delay asks the agent to wait this long before its next send.
	// Zero means no throttling requested.
	Delay time.Duration
	// Credit caps the number of samples the server is willing to accept
	// in the agent's next batch. Zero means no cap.
	Credit int
}

// Throttled reports whether the ack carries a non-zero throttle hint.
func (a AckInfo) Throttled() bool { return a.Delay > 0 || a.Credit > 0 }

// ackHintSize is the wire size of the extended ack payload: 4-byte stored
// count + 4-byte delay (milliseconds) + 4-byte credit.
const ackHintSize = 12

// maxAckDelayMillis caps the encodable delay hint (~49 days is absurd;
// this keeps the uint32 wire field well-defined for any Duration input).
const maxAckDelayMillis = 1<<32 - 1

// EncodeAckInfo serializes an acknowledgment. When the hint is zero the
// legacy 4-byte form is emitted, so agents that predate throttle hints
// interoperate with a server that never needs to throttle; the extended
// 12-byte form is used only when a hint is present.
func EncodeAckInfo(info AckInfo) []byte {
	if !info.Throttled() {
		return EncodeAck(info.Stored)
	}
	buf := make([]byte, ackHintSize)
	binary.BigEndian.PutUint32(buf[0:4], uint32(info.Stored))
	millis := info.Delay.Milliseconds()
	if millis > maxAckDelayMillis {
		millis = maxAckDelayMillis
	}
	if millis == 0 && info.Delay > 0 {
		millis = 1 // sub-millisecond hints round up, never down to "none"
	}
	binary.BigEndian.PutUint32(buf[4:8], uint32(millis))
	binary.BigEndian.PutUint32(buf[8:12], uint32(info.Credit))
	return buf
}

// DecodeAckInfo parses an acknowledgment payload in either form: the
// legacy 4-byte stored count, or the extended count + throttle hint.
func DecodeAckInfo(payload []byte) (AckInfo, error) {
	switch len(payload) {
	case 4:
		return AckInfo{Stored: int(binary.BigEndian.Uint32(payload))}, nil
	case ackHintSize:
		return AckInfo{
			Stored: int(binary.BigEndian.Uint32(payload[0:4])),
			Delay:  time.Duration(binary.BigEndian.Uint32(payload[4:8])) * time.Millisecond,
			Credit: int(binary.BigEndian.Uint32(payload[8:12])),
		}, nil
	default:
		return AckInfo{}, ErrTruncated
	}
}

package collector

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// Agent ships samples from one machine to a collector server over a single
// TCP connection. Methods are safe for concurrent use.
type Agent struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader // the one reader of conn; acks are read through it
	name   string
	tenant string
	closed bool
	sent   int
	hint   AckInfo // throttle hint from the most recent ack
	wbuf   []byte  // the samples frame being sent, reused by every sendOne
	rbuf   []byte  // the ack frame being read, reused by every sendOne
}

// agentReadBuffer sizes an agent's reader: the server only sends it acks,
// of at most 22 bytes a frame.
const agentReadBuffer = 256

// Dial connects to the server at addr and introduces the agent by name,
// with no tenant field (a multi-tenant server routes it to the default
// tenant).
func Dial(addr, name string) (*Agent, error) {
	return DialTenant(addr, name, "")
}

// DialTenant connects to the server at addr and introduces the agent by
// name under the given tenant. An empty tenant emits the legacy hello.
func DialTenant(addr, name, tenant string) (*Agent, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("agent dial %s: %w", addr, err)
	}
	a, err := NewAgentConnTenant(conn, name, tenant)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// NewAgentConnTenant wraps an existing connection as an agent for the
// given tenant, sending the hello frame.
func NewAgentConnTenant(conn net.Conn, name, tenant string) (*Agent, error) {
	a := &Agent{conn: conn, r: bufio.NewReaderSize(conn, agentReadBuffer), name: name, tenant: tenant}
	if err := WriteFrame(conn, Frame{Type: MsgHello, Payload: EncodeHello(name, tenant)}); err != nil {
		return nil, fmt.Errorf("agent hello: %w", err)
	}
	return a, nil
}

// Name returns the agent's name.
func (a *Agent) Name() string { return a.name }

// Tenant returns the tenant named in the agent's hello ("" = default).
func (a *Agent) Tenant() string { return a.tenant }

// Sent returns the number of samples successfully acknowledged.
func (a *Agent) Sent() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent
}

// LastHint returns the throttle hint carried on the most recent ack —
// the server's advisory request to back off (Delay) and/or cap the next
// batch (Credit). The zero AckInfo means the server is not throttling.
func (a *Agent) LastHint() AckInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AckInfo{Delay: a.hint.Delay, Credit: a.hint.Credit}
}

// PartialSendError reports a Send that delivered only a leading prefix of
// the batch: the first Sent samples were acknowledged by the server, the
// rest were not. Err is the underlying cause — nil when the connection is
// healthy and the server simply acked fewer samples (its sink rejected the
// tail), non-nil when the transport failed partway. Callers can drop the
// acked prefix and resend only the remainder.
type PartialSendError struct {
	// Sent is how many leading samples of the batch the server acked.
	Sent int
	// Err is the underlying failure, nil for a clean partial ack.
	Err error
}

// Error describes the partial delivery.
func (e *PartialSendError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("collector: server acked %d samples, rest rejected", e.Sent)
	}
	return fmt.Sprintf("collector: delivery stopped after %d acked samples: %v", e.Sent, e.Err)
}

// Unwrap returns the underlying cause (nil for a clean partial ack).
func (e *PartialSendError) Unwrap() error { return e.Err }

// Send ships one batch of samples and waits for the server's ack. Batches
// larger than MaxBatch are split transparently. A failure after the server
// acked some samples is returned as a *PartialSendError carrying the acked
// count, so the caller can resume from that offset.
func (a *Agent) Send(batch []tsdb.Sample) error {
	sent := 0
	for len(batch) > 0 {
		n := len(batch)
		if n > MaxBatch {
			n = MaxBatch
		}
		acked, err := a.sendOne(batch[:n])
		if err != nil {
			if sent+acked > 0 {
				var pe *PartialSendError
				if errors.As(err, &pe) {
					err = pe.Err
				}
				return &PartialSendError{Sent: sent + acked, Err: err}
			}
			return err
		}
		sent += n
		batch = batch[n:]
	}
	return nil
}

// sendOne ships one wire-sized batch and returns how many samples the
// server acked. acked < len(batch) always comes with an error.
func (a *Agent) sendOne(batch []tsdb.Sample) (acked int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, errors.New("agent: closed")
	}
	// The payload is encoded behind a reserved header, so the frame leaves
	// in one write from a buffer the agent keeps; the bytes are WriteFrame's.
	buf, err := appendSamples(append(a.wbuf[:0], make([]byte, frameHeaderSize)...), batch)
	if err != nil {
		return 0, fmt.Errorf("agent encode: %w", err)
	}
	a.wbuf = buf
	putFrameHeader(buf, MsgSamples, len(buf)-frameHeaderSize)
	if _, err := a.conn.Write(buf); err != nil {
		return 0, fmt.Errorf("agent send: write %s frame: %w", MsgSamples, err)
	}
	f, err := readFrameInto(a.r, &a.rbuf)
	if err != nil {
		return 0, fmt.Errorf("agent await ack: %w", err)
	}
	if f.Type != MsgAck {
		return 0, fmt.Errorf("agent: expected ack, got %s", f.Type)
	}
	info, err := DecodeAckInfo(f.Payload)
	if err != nil {
		return 0, fmt.Errorf("agent decode ack: %w", err)
	}
	a.hint = info
	n := info.Stored
	if n > len(batch) {
		return 0, fmt.Errorf("agent: server acked %d of %d samples", n, len(batch))
	}
	a.sent += n
	if n != len(batch) {
		return n, &PartialSendError{Sent: n}
	}
	return n, nil
}

// Heartbeat sends a keepalive stamped with t.
func (a *Agent) Heartbeat(t time.Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("agent: closed")
	}
	return WriteFrame(a.conn, Frame{Type: MsgHeartbeat, Payload: EncodeHeartbeat(t)})
}

// StartHeartbeats sends a heartbeat every interval from a background
// goroutine until the returned stop function is called or a send fails.
// The stop function blocks until the loop has exited and is safe to call
// more than once. Interval ≤ 0 selects 30 seconds.
func (a *Agent) StartHeartbeats(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				if err := a.Heartbeat(now); err != nil {
					return // connection gone; the loop must not spin
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-stopped
	}
}

// Close sends a bye frame and closes the connection.
func (a *Agent) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	_ = WriteFrame(a.conn, Frame{Type: MsgBye})
	return a.conn.Close()
}

// Replay streams every sample of a machine's slice of a dataset to the
// server in time order, batching samplesPerBatch at a time — used to
// simulate a live agent from generated history.
func (a *Agent) Replay(ds *timeseries.Dataset, machine string, samplesPerBatch int) error {
	if samplesPerBatch <= 0 {
		samplesPerBatch = 256
	}
	var batch []tsdb.Sample
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := a.Send(batch)
		batch = batch[:0]
		return err
	}
	// Collect the machine's series.
	var series []*timeseries.Series
	for _, id := range ds.IDs() {
		if id.Machine == machine {
			series = append(series, ds.Get(id))
		}
	}
	if len(series) == 0 {
		return fmt.Errorf("agent replay: no measurements for machine %q", machine)
	}
	// Interleave by time so the store sees in-order appends per series.
	maxLen := 0
	for _, s := range series {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, s := range series {
			if i >= s.Len() {
				continue
			}
			batch = append(batch, tsdb.Sample{ID: s.ID, Time: s.TimeAt(i), Value: s.Values[i]})
			if len(batch) >= samplesPerBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

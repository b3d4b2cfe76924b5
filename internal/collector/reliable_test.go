package collector

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// noSleep replaces the backoff delay so retry tests run instantly.
func noSleep(time.Duration) {}

func TestReliableAgentHappyPath(t *testing.T) {
	_, store, addr := newTestServer(t)
	ra := NewReliableAgent(addr, "rel-01", ReliableConfig{Sleep: noSleep})
	defer ra.Close()
	if err := ra.Send(sampleBatch(10)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if ra.Pending() != 0 || ra.Dropped() != 0 {
		t.Errorf("pending=%d dropped=%d", ra.Pending(), ra.Dropped())
	}
	if got := store.Len(sampleBatch(1)[0].ID); got != 10 {
		t.Errorf("store has %d samples", got)
	}
}

func TestReliableAgentBuffersWhileServerDown(t *testing.T) {
	// No server yet: sends fail but buffer.
	ra := NewReliableAgent("127.0.0.1:1", "rel-02", ReliableConfig{
		MaxAttempts: 2, Sleep: noSleep,
	})
	defer ra.Close()
	if err := ra.Send(sampleBatch(5)); err == nil {
		t.Fatal("send to dead server: want error")
	}
	if ra.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", ra.Pending())
	}
	// Bring a server up and point a new reliable agent at it... the
	// address was fixed, so instead start a real server and retry against
	// it via a fresh agent sharing the buffer semantics:
	_, store, addr := newTestServer(t)
	ra2 := NewReliableAgent(addr, "rel-02", ReliableConfig{Sleep: noSleep})
	defer ra2.Close()
	if err := ra2.Send(sampleBatch(5)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if store.Len(sampleBatch(1)[0].ID) != 5 {
		t.Error("samples not delivered after server came up")
	}
}

func TestReliableAgentReconnectsAfterServerRestart(t *testing.T) {
	srv, _, addr := newTestServer(t)
	ra := NewReliableAgent(addr, "rel-03", ReliableConfig{
		MaxAttempts: 3, Sleep: noSleep,
	})
	defer ra.Close()
	if err := ra.Send(sampleBatch(3)); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	// Kill the server: the established connection dies.
	srv.Close()
	batch := []tsdb.Sample{{
		ID:    timeseries.MeasurementID{Machine: "rel-03", Metric: "cpu"},
		Time:  timeseries.MonitoringStart.Add(time.Hour),
		Value: 42,
	}}
	if err := ra.Send(batch); err == nil {
		t.Fatal("send after server death: want error")
	}
	if ra.Pending() == 0 {
		t.Fatal("failed samples should stay pending")
	}
	// Restart a server on a new port; re-point by building a new reliable
	// agent is the normal path, but the pending data belongs to ra, so we
	// verify Flush retries and eventually reports failure against the
	// dead address without losing the buffer.
	if err := ra.Flush(); err == nil {
		t.Fatal("flush against dead server: want error")
	}
	if ra.Pending() == 0 {
		t.Error("buffer must survive failed flushes")
	}
}

func TestReliableAgentBufferLimitDropsOldest(t *testing.T) {
	ra := NewReliableAgent("127.0.0.1:1", "rel-04", ReliableConfig{
		MaxAttempts: 1, BufferLimit: 8, Sleep: noSleep,
	})
	defer ra.Close()
	_ = ra.Send(sampleBatch(6))
	_ = ra.Send(sampleBatch(6))
	if ra.Pending() != 8 {
		t.Errorf("pending = %d, want 8", ra.Pending())
	}
	if ra.Dropped() != 4 {
		t.Errorf("dropped = %d, want 4", ra.Dropped())
	}
}

func TestReliableAgentClose(t *testing.T) {
	ra := NewReliableAgent("127.0.0.1:1", "rel-05", ReliableConfig{MaxAttempts: 1, Sleep: noSleep})
	_ = ra.Send(sampleBatch(2))
	if err := ra.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ra.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := ra.Send(sampleBatch(1)); err == nil {
		t.Error("send after close: want error")
	}
	if ra.Pending() != 0 {
		t.Error("close should clear the buffer")
	}
}

func TestReliableAgentInterleavedDelivery(t *testing.T) {
	_, store, addr := newTestServer(t)
	ra := NewReliableAgent(addr, "rel-06", ReliableConfig{Sleep: noSleep})
	defer ra.Close()
	id := timeseries.MeasurementID{Machine: "rel-06", Metric: "cpu"}
	for i := 0; i < 20; i++ {
		batch := []tsdb.Sample{{
			ID: id, Time: timeseries.MonitoringStart.Add(time.Duration(i) * timeseries.SampleStep),
			Value: float64(i),
		}}
		if err := ra.Send(batch); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	got, err := store.Query(id, timeseries.MonitoringStart, timeseries.MonitoringStart.Add(time.Hour*3))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got.Len() != 20 {
		t.Fatalf("delivered %d of 20", got.Len())
	}
	for i := 0; i < 20; i++ {
		if got.Values[i] != float64(i) {
			t.Fatalf("out-of-order delivery at %d", i)
		}
	}
}

// hintServer is a minimal hand-rolled frame server that acks every
// samples batch with a caller-chosen AckInfo — the deterministic way to
// hand a reliable agent an exact throttle hint without racing a real
// admission queue.
func hintServer(t *testing.T, info func(batch int) AckInfo) (addr string, acked <-chan int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	ackCh := make(chan int, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					switch f.Type {
					case MsgSamples:
						batch, err := DecodeSamples(f.Payload)
						if err != nil {
							return
						}
						ack := Frame{Type: MsgAck, Payload: EncodeAckInfo(info(len(batch)))}
						if err := WriteFrame(conn, ack); err != nil {
							return
						}
						select {
						case ackCh <- len(batch):
						default:
						}
					case MsgBye:
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), ackCh
}

// TestReliableAgentCloseInterruptsHintDelaySleep pins the shutdown
// contract for throttle hints: when the server sheds a batch with a long
// delay hint, the flusher parks in the hint wait — and a concurrent
// Close must interrupt that wait immediately (the wait selects on
// closeCh), not block shutdown for up to the hinted delay.
func TestReliableAgentCloseInterruptsHintDelaySleep(t *testing.T) {
	addr, acked := hintServer(t, func(int) AckInfo {
		return AckInfo{Stored: 0, Delay: 10 * time.Second} // healthy shed: retry in 10s
	})
	// No test Sleep injected: the wait must go through the real
	// closeCh-interruptible timer, which is exactly what is under test.
	ra := NewReliableAgent(addr, "rel-hint-close", ReliableConfig{MaxAttempts: 3})
	done := make(chan error, 1)
	go func() { done <- ra.Send(sampleBatch(3)) }()
	<-acked // the shed ack (with the 10s hint) reached the server side
	start := time.Now()
	if err := ra.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, errReliableClosed) {
			t.Errorf("Send = %v, want closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked 5s after Close; hint-delay wait ignores closeCh")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("Close took %v to unblock the hint wait", waited)
	}
}

// TestReliableAgentFinalAckDelayCarriesToNextFlush covers the flush
// boundary: a delay hint that arrives with the final ack of a flush has
// no in-loop wait left to serve it, so it must be carried — like credit
// already is — and honored at the start of the next flush.
func TestReliableAgentFinalAckDelayCarriesToNextFlush(t *testing.T) {
	const hinted = 150 * time.Millisecond
	addr, _ := hintServer(t, func(n int) AckInfo {
		return AckInfo{Stored: n, Delay: hinted} // store everything, ask for pacing
	})
	slept := make(chan time.Duration, 8)
	ra := NewReliableAgent(addr, "rel-hint-carry", ReliableConfig{
		Sleep: func(d time.Duration) { slept <- d },
	})
	defer ra.Close()
	if err := ra.Send(sampleBatch(3)); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	select {
	case d := <-slept:
		t.Fatalf("first flush slept %v before any hint existed", d)
	default:
	}
	if err := ra.Send(sampleBatch(2)); err != nil {
		t.Fatalf("second Send: %v", err)
	}
	select {
	case d := <-slept:
		if d != hinted {
			t.Errorf("second flush honored delay %v, want the carried hint %v", d, hinted)
		}
	default:
		t.Error("second flush ignored the delay hint from the previous flush's final ack")
	}
}

// appendBehindSink lets one more Send append behind the in-flight prefix
// before each of its first n batches is acked: the next batch's Send is
// started, the sink waits until its samples are pending, and only then
// records the batch and lets its ack go back.
type appendBehindSink struct {
	*countingSink
	ra    *ReliableAgent
	n     int32
	calls atomic.Int32
	wg    sync.WaitGroup
	errs  chan error
}

func (s *appendBehindSink) AppendBatch(batch []tsdb.Sample) error {
	if k := s.calls.Add(1); k <= s.n {
		next := batchFor(fmt.Sprintf("m%d", k), 4)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.errs <- s.ra.Send(next)
		}()
		for s.ra.Pending() <= len(batch) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return s.countingSink.AppendBatch(batch)
}

// TestReliableAgentFlushEndsWhenItsSamplesAreAcked: a flush owes the
// samples pending when it began, and only failed passes count against
// MaxAttempts. Before, every clean delivery counted too, so a flush that
// concurrent Sends kept refilling gave up with "delivery incomplete"
// after MaxAttempts batches although nothing had failed.
func TestReliableAgentFlushEndsWhenItsSamplesAreAcked(t *testing.T) {
	const maxAttempts, chained = 3, 8
	sink := &appendBehindSink{countingSink: newCountingSink(), n: chained, errs: make(chan error, chained)}
	_, addr := newSinkServer(t, sink, FlowConfig{})
	ra := NewReliableAgent(addr, "rel-behind", ReliableConfig{MaxAttempts: maxAttempts, Sleep: noSleep})
	defer ra.Close()
	sink.ra = ra
	if err := ra.Send(batchFor("m0", 4)); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	// Each chained Send is started while an earlier one is still in flight,
	// so the wait group cannot drain before the last one returns.
	sink.wg.Wait()
	close(sink.errs)
	for err := range sink.errs {
		if err != nil {
			t.Errorf("chained Send: %v", err)
		}
	}
	if p := ra.Pending(); p != 0 {
		t.Errorf("Pending = %d, want 0", p)
	}
	want := 4 * (chained + 1)
	unique, total := sink.counts()
	if dups := sink.duplicates(); len(dups) != 0 {
		t.Errorf("duplicate deliveries: %v", dups)
	}
	if unique != want || total != want {
		t.Errorf("sink saw %d samples (%d unique), want exactly %d", total, unique, want)
	}
}

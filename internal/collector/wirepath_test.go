package collector

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// nopSink accepts every batch and keeps nothing.
type nopSink struct{}

func (nopSink) AppendBatch([]tsdb.Sample) error { return nil }

// recordingSink keeps a copy of every sample it is handed, per machine, as
// the Sink contract asks of a sink that holds on to samples.
type recordingSink struct {
	mu  sync.Mutex
	got map[string][]tsdb.Sample
}

func (r *recordingSink) AppendBatch(batch []tsdb.Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range batch {
		r.got[s.ID.Machine] = append(r.got[s.ID.Machine], s)
	}
	return nil
}

// wireBatch builds n samples of machine over metrics metric-0 …
// metric-(ids−1), starting at sample index from.
func wireBatch(machine string, ids, from, n int) []tsdb.Sample {
	out := make([]tsdb.Sample, n)
	for i := range out {
		k := from + i
		out[i] = tsdb.Sample{
			ID:    timeseries.MeasurementID{Machine: machine, Metric: fmt.Sprintf("metric-%d", k%ids)},
			Time:  timeseries.MonitoringStart.Add(time.Duration(k) * timeseries.SampleStep),
			Value: float64(k) / 3,
		}
	}
	return out
}

func sameSample(a, b tsdb.Sample) bool {
	return a.ID == b.ID && a.Time.Equal(b.Time) && a.Value == b.Value
}

// TestServerReusesBatchSafely: the server decodes every frame of a
// connection into one reused batch. A sink that copies what it is handed
// must still see exactly the samples sent, in order, from two agents
// sending concurrently, with IDs both repeated and new on every frame —
// handed over inline and through the admission queue's drainer.
func TestServerReusesBatchSafely(t *testing.T) {
	for _, flow := range []FlowConfig{{}, {QueueDepth: 2, Shed: ShedBlock}} {
		t.Run(fmt.Sprintf("queue=%d", flow.QueueDepth), func(t *testing.T) {
			sink := &recordingSink{got: make(map[string][]tsdb.Sample)}
			_, addr := newSinkServer(t, sink, flow)
			const framesPerAgent = 120 // 240 frames in all
			want := make(map[string][]tsdb.Sample)
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			for a := 0; a < 2; a++ {
				machine := fmt.Sprintf("reuse-%d", a)
				var frames [][]tsdb.Sample
				for f, from := 0, 0; f < framesPerAgent; f++ {
					// Frame sizes vary so a short frame follows a long one,
					// and the metric set widens by one ID a frame while the
					// old IDs keep coming.
					n := 1 + (f*7)%40
					frames = append(frames, wireBatch(machine, 3+f, from, n))
					want[machine] = append(want[machine], frames[f]...)
					from += n
				}
				agent := dialT(t, addr, machine)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, batch := range frames {
						if err := agent.Send(batch); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("Send: %v", err)
			}
			sink.mu.Lock()
			defer sink.mu.Unlock()
			for machine, w := range want {
				got := sink.got[machine]
				if len(got) != len(w) {
					t.Fatalf("%s: sink saw %d samples, sent %d", machine, len(got), len(w))
				}
				for i := range w {
					if !sameSample(got[i], w[i]) {
						t.Fatalf("%s sample %d: sink saw %+v, sent %+v", machine, i, got[i], w[i])
					}
				}
			}
		})
	}
}

// TestWirePathAllocs gates the wire path from agent to sink: a samples
// frame sent through Agent.Send or ReliableAgent.Send into a Server costs a
// few allocations in the whole process — sender, server and ack — and the
// same few at 24 samples as at 300.
func TestWirePathAllocs(t *testing.T) {
	_, addr := newSinkServer(t, nopSink{}, FlowConfig{})
	agent := dialT(t, addr, "allocs")
	reliable := NewReliableAgent(addr, "allocs-reliable", ReliableConfig{})
	t.Cleanup(func() { reliable.Close() })
	senders := []struct {
		name string
		send func([]tsdb.Sample) error
	}{{"Agent", agent.Send}, {"ReliableAgent", reliable.Send}}
	const maxAllocs = 5
	for _, sd := range senders {
		var counts []float64
		for _, n := range []int{24, 300} {
			batch := wireBatch("allocs", n, 0, n)
			// Warm every buffer and interned ID before counting.
			for i := 0; i < 3; i++ {
				if err := sd.send(batch); err != nil {
					t.Fatalf("%s warm-up Send: %v", sd.name, err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := sd.send(batch); err != nil {
					t.Fatalf("%s Send: %v", sd.name, err)
				}
			})
			t.Logf("%s, %d samples: %.1f allocations a frame", sd.name, n, allocs)
			if allocs > maxAllocs {
				t.Errorf("%s, %d samples: %.1f allocations a frame, want ≤ %d", sd.name, n, allocs, maxAllocs)
			}
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %.1f allocations a frame at 24 samples, %.1f at 300: the path allocates per sample", sd.name, counts[0], counts[1])
		}
	}
}

// TestWriteFrameAllocs: WriteFrame allocates once a frame whether it
// copies a small payload behind the header or sends a large one beside it
// as net.Buffers (the path every shardnet row and outcome frame takes).
func TestWriteFrameAllocs(t *testing.T) {
	for _, n := range []int{12, smallPayload + 1, 4096} {
		f := Frame{Type: MsgSamples, Payload: make([]byte, n)}
		allocs := testing.AllocsPerRun(100, func() {
			if err := WriteFrame(io.Discard, f); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
		})
		if allocs > 1 {
			t.Errorf("%d-byte payload: WriteFrame allocates %.0f times, want 1", n, allocs)
		}
	}
}

// TestFrameBytesUnchanged: the frame Agent.Send encodes in place is the
// frame WriteFrame makes of EncodeSamples, byte for byte.
func TestFrameBytesUnchanged(t *testing.T) {
	batch := wireBatch("bytes", 5, 0, 37)
	payload, err := EncodeSamples(batch)
	if err != nil {
		t.Fatalf("EncodeSamples: %v", err)
	}
	var want bytes.Buffer
	if err := WriteFrame(&want, Frame{Type: MsgSamples, Payload: payload}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}

	client, server := net.Pipe()
	made := make(chan *Agent, 1)
	go func() {
		a, err := NewAgentConnTenant(client, "bytes", "")
		if err != nil {
			t.Error(err)
		}
		made <- a
	}()
	if _, err := ReadFrame(server); err != nil {
		t.Fatalf("read hello: %v", err)
	}
	agent := <-made
	sent := make(chan error, 1)
	go func() { sent <- agent.Send(batch) }()
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read the agent's frame: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Agent.Send wrote\n%x\nwant WriteFrame(EncodeSamples)\n%x", got, want.Bytes())
	}
	if err := WriteFrame(server, Frame{Type: MsgAck, Payload: EncodeAck(len(batch))}); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("Send: %v", err)
	}
	server.Close() // the agent's bye then fails at once instead of blocking the pipe
	agent.Close()
}

// TestInternTableBound: a connection sending more distinct IDs than the
// table holds keeps the table at its bound and still decodes every sample
// — IDs inside the table and past it alike.
func TestInternTableBound(t *testing.T) {
	ids := newInternTable()
	var batch []tsdb.Sample
	const perFrame = MaxBatch
	for from := 0; from < maxInterned+2*perFrame; from += perFrame {
		sent := wireBatch("bound", maxInterned+perFrame, from, perFrame)
		payload, err := EncodeSamples(sent)
		if err != nil {
			t.Fatalf("EncodeSamples: %v", err)
		}
		if batch, err = decodeSamplesInto(batch, payload, ids); err != nil {
			t.Fatalf("decode at %d: %v", from, err)
		}
		for i := range sent {
			if !sameSample(batch[i], sent[i]) {
				t.Fatalf("sample %d: decoded %+v, sent %+v", from+i, batch[i], sent[i])
			}
		}
		if len(ids.ids) > maxInterned {
			t.Fatalf("table holds %d IDs, bound %d", len(ids.ids), maxInterned)
		}
	}
	if len(ids.ids) != maxInterned {
		t.Fatalf("table holds %d IDs, want it full at %d", len(ids.ids), maxInterned)
	}
	// An ID the full table does not hold still decodes.
	late := wireBatch("bound", maxInterned+perFrame, maxInterned+perFrame-1, 1)
	payload, err := EncodeSamples(late)
	if err != nil {
		t.Fatalf("EncodeSamples: %v", err)
	}
	if batch, err = decodeSamplesInto(batch, payload, ids); err != nil || !sameSample(batch[0], late[0]) {
		t.Fatalf("decode past the bound: %+v, %v; want %+v", batch, err, late[0])
	}
}

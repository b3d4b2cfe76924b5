package collector

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

func newTestServer(t *testing.T) (*Server, *tsdb.Store, string) {
	t.Helper()
	store, err := tsdb.NewStore(timeseries.SampleStep, 0)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, store, addr.String()
}

func TestNewServerNilSink(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Error("nil sink: want error")
	}
}

func TestAgentSendsSamples(t *testing.T) {
	srv, store, addr := newTestServer(t)
	agent, err := Dial(addr, "srv-01")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer agent.Close()
	batch := sampleBatch(20)
	if err := agent.Send(batch); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if agent.Sent() != 20 {
		t.Errorf("Sent = %d", agent.Sent())
	}
	if got := store.Len(batch[0].ID); got != 20 {
		t.Errorf("store has %d samples, want 20", got)
	}
	if err := agent.Heartbeat(time.Now()); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	agent.Close()
	// The server processes bye and tears down; stats settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if st.Connections == 0 && st.Samples == 20 && st.Heartbeats == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("stats never settled: %+v", srv.Stats())
}

func TestAgentLargeBatchSplits(t *testing.T) {
	_, store, addr := newTestServer(t)
	agent, err := Dial(addr, "srv-02")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer agent.Close()
	big := sampleBatch(MaxBatch + 100)
	if err := agent.Send(big); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := store.Len(big[0].ID); got != MaxBatch+100 {
		t.Errorf("store has %d samples", got)
	}
}

func TestConcurrentAgents(t *testing.T) {
	_, store, addr := newTestServer(t)
	const agents = 8
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			ag, err := Dial(addr, fmt.Sprintf("srv-%02d", a))
			if err != nil {
				errs <- err
				return
			}
			defer ag.Close()
			batch := make([]tsdb.Sample, 100)
			for i := range batch {
				batch[i] = tsdb.Sample{
					ID:    timeseries.MeasurementID{Machine: fmt.Sprintf("srv-%02d", a), Metric: "cpu"},
					Time:  timeseries.MonitoringStart.Add(time.Duration(i) * timeseries.SampleStep),
					Value: float64(i),
				}
			}
			errs <- ag.Send(batch)
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("agent: %v", err)
		}
	}
	if got := len(store.IDs()); got != agents {
		t.Errorf("store has %d measurements, want %d", got, agents)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	srv, _, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n garbage garbage")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The server should close the connection on the bad magic.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server should close a garbage connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().Errors > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("server never counted the protocol error")
}

func TestServerStaleSamplesAckZeroAndKeepConnection(t *testing.T) {
	_, store, addr := newTestServer(t)
	agent, err := Dial(addr, "srv-03")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer agent.Close()
	id := timeseries.MeasurementID{Machine: "srv-03", Metric: "cpu"}
	fresh := []tsdb.Sample{{ID: id, Time: timeseries.MonitoringStart.Add(time.Hour), Value: 1}}
	if err := agent.Send(fresh); err != nil {
		t.Fatalf("Send fresh: %v", err)
	}
	stale := []tsdb.Sample{{ID: id, Time: timeseries.MonitoringStart, Value: 2}}
	if err := agent.Send(stale); err == nil {
		t.Error("stale batch should be reported to the agent")
	}
	// The connection survives; a further fresh send works.
	fresh2 := []tsdb.Sample{{ID: id, Time: timeseries.MonitoringStart.Add(2 * time.Hour), Value: 3}}
	if err := agent.Send(fresh2); err != nil {
		t.Fatalf("Send after stale: %v", err)
	}
	// The store anchors at the first accepted sample (+1h), so +2h is
	// 10 steps later: 11 slots including the NaN-filled gap.
	if store.Len(id) != int(time.Hour/timeseries.SampleStep)+1 {
		t.Errorf("store length = %d", store.Len(id))
	}
}

func TestServerCloseIdempotentAndStopsAccept(t *testing.T) {
	srv, _, addr := newTestServer(t)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := Dial(addr, "late"); err == nil {
		t.Error("dial after close should fail")
	}
}

func TestAgentAfterCloseErrors(t *testing.T) {
	_, _, addr := newTestServer(t)
	agent, err := Dial(addr, "srv-04")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	agent.Close()
	if err := agent.Send(sampleBatch(1)); err == nil {
		t.Error("send after close: want error")
	}
	if err := agent.Heartbeat(time.Now()); err == nil {
		t.Error("heartbeat after close: want error")
	}
	if agent.Name() != "srv-04" {
		t.Errorf("Name = %q", agent.Name())
	}
}

func TestAgentReplayDataset(t *testing.T) {
	_, store, addr := newTestServer(t)
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "R", Machines: 2, Days: 1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	machine := simulator.MachineName("R", 0)
	agent, err := Dial(addr, machine)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer agent.Close()
	if err := agent.Replay(ds, machine, 500); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	id := timeseries.MeasurementID{Machine: machine, Metric: simulator.MetricCPU}
	if got := store.Len(id); got != timeseries.SamplesPerDay {
		t.Errorf("replayed %d samples, want %d", got, timeseries.SamplesPerDay)
	}
	// Replayed values match the source exactly.
	src := ds.Get(id)
	got, err := store.Query(id, src.Start, src.End())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i := range src.Values {
		if got.Values[i] != src.Values[i] {
			t.Fatalf("value %d differs", i)
		}
	}
	// Replay of an unknown machine errors.
	if err := agent.Replay(ds, "nope", 10); err == nil {
		t.Error("unknown machine: want error")
	}
}

func TestServeOnClosedServer(t *testing.T) {
	store, _ := tsdb.NewStore(time.Minute, 0)
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve on closed server: want error")
	}
}

func TestServerIdleTimeout(t *testing.T) {
	store, _ := tsdb.NewStore(time.Minute, 0)
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.SetIdleTimeout(50 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Send nothing; the server should drop us on idle timeout well before
	// our own 3-second read deadline fires.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection should be dropped")
	} else if time.Since(start) > 2*time.Second {
		t.Error("server idle timeout never fired; the test hit its own deadline")
	}
}

func TestAgentHeartbeatLoop(t *testing.T) {
	srv, _, addr := newTestServer(t)
	agent, err := Dial(addr, "hb")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer agent.Close()
	stop := agent.StartHeartbeats(10 * time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().Heartbeats >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	got := srv.Stats().Heartbeats
	if got < 3 {
		t.Fatalf("heartbeats = %d, want >= 3", got)
	}
	// After stop, no more heartbeats arrive.
	time.Sleep(50 * time.Millisecond)
	base := srv.Stats().Heartbeats
	time.Sleep(50 * time.Millisecond)
	if srv.Stats().Heartbeats != base {
		t.Error("heartbeats continued after stop")
	}
	// Sends still interleave safely with the (stopped) loop.
	if err := agent.Send(sampleBatch(5)); err != nil {
		t.Fatalf("Send after heartbeats: %v", err)
	}
}

func TestAgentHeartbeatLoopExitsOnClose(t *testing.T) {
	_, _, addr := newTestServer(t)
	agent, err := Dial(addr, "hb2")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	stop := agent.StartHeartbeats(5 * time.Millisecond)
	agent.Close()
	// The loop must terminate on its own once sends fail; stop must not
	// hang.
	doneCh := make(chan struct{})
	go func() { stop(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("stop hung after Close")
	}
}

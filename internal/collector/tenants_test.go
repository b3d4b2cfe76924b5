package collector

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// fakeRouter is a minimal TenantRouter over named stores.
type fakeRouter struct {
	def    string
	sinks  map[string]Sink
	rates  map[string]float64
	bursts map[string]int
}

func (r *fakeRouter) SinkFor(tenant string) (string, Sink, error) {
	if tenant == "" {
		tenant = r.def
	}
	s, ok := r.sinks[tenant]
	if !ok {
		return "", nil, fmt.Errorf("unknown tenant %q", tenant)
	}
	return tenant, s, nil
}

func (r *fakeRouter) TenantLimit(name string) (float64, int) {
	return r.rates[name], r.bursts[name]
}

func newTenantStore(t *testing.T) *tsdb.Store {
	t.Helper()
	store, err := tsdb.NewStore(timeseries.SampleStep, 0)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return store
}

func newTenantTestServer(t *testing.T, router TenantRouter) string {
	t.Helper()
	srv, err := NewTenantServer(router, nil)
	if err != nil {
		t.Fatalf("NewTenantServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

func TestHelloEncoding(t *testing.T) {
	if got := EncodeHello("srv-01", ""); !bytes.Equal(got, []byte("srv-01")) {
		t.Errorf("legacy hello = %q, want bare agent name", got)
	}
	agent, tenant := DecodeHello([]byte("srv-01"))
	if agent != "srv-01" || tenant != "" {
		t.Errorf("legacy decode = (%q, %q)", agent, tenant)
	}
	agent, tenant = DecodeHello(EncodeHello("srv-01", "alpha"))
	if agent != "srv-01" || tenant != "alpha" {
		t.Errorf("tenant decode = (%q, %q)", agent, tenant)
	}
}

// TestTenantSwitchNeverMisfiles: one connection says hello to alpha, sends
// samples, says hello to beta and sends the same IDs. Its ID table still
// holds alpha's handles, which in beta name another series or none; beta
// checks them and files every sample under its own ID.
func TestTenantSwitchNeverMisfiles(t *testing.T) {
	alpha, beta := newTenantStore(t), newTenantStore(t)
	addr := newTenantTestServer(t, &fakeRouter{
		def:   "alpha",
		sinks: map[string]Sink{"alpha": alpha, "beta": beta},
	})
	t0 := timeseries.MonitoringStart
	ids := []timeseries.MeasurementID{
		{Machine: "srv-01", Metric: "cpu"}, {Machine: "srv-01", Metric: "mem"}, {Machine: "srv-02", Metric: "cpu"},
	}
	// beta numbers srv-02/cpu 1 and srv-01/mem 2; alpha will number the
	// three 1, 2, 3.
	for _, id := range []timeseries.MeasurementID{ids[2], ids[1]} {
		if err := beta.Append(tsdb.Sample{ID: id, Time: t0, Value: -1}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(f Frame, acked int) {
		t.Helper()
		if err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		if acked < 0 {
			return
		}
		reply, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		info, err := DecodeAckInfo(reply.Payload)
		if err != nil || info.Stored != acked {
			t.Fatalf("ack %+v, %v; want %d stored", info, err, acked)
		}
	}
	row := func(k int) Frame {
		var batch []tsdb.Sample
		for i, id := range ids {
			batch = append(batch, tsdb.Sample{ID: id, Time: t0.Add(time.Duration(k) * timeseries.SampleStep), Value: float64(10*k + i)})
		}
		p, err := EncodeSamples(batch)
		if err != nil {
			t.Fatal(err)
		}
		return Frame{Type: MsgSamples, Payload: p}
	}
	exchange(Frame{Type: MsgHello, Payload: EncodeHello("srv-01", "alpha")}, -1)
	exchange(row(1), 3)
	exchange(Frame{Type: MsgHello, Payload: EncodeHello("srv-01", "beta")}, -1)
	exchange(row(2), 3)
	exchange(row(3), 3) // now with beta's own handles
	for _, c := range []struct {
		store *tsdb.Store
		name  string
		want  [][]float64
	}{
		{alpha, "alpha", [][]float64{{10}, {11}, {12}}},
		{beta, "beta", [][]float64{{20, 30}, {-1, math.NaN(), 21, 31}, {-1, math.NaN(), 22, 32}}},
	} {
		if got := len(c.store.IDs()); got != len(ids) {
			t.Errorf("%s holds %d series, want %d", c.name, got, len(ids))
		}
		for i, id := range ids {
			sr, err := c.store.Query(id, t0, t0.Add(time.Hour))
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, id, err)
			}
			if fmt.Sprint(sr.Values) != fmt.Sprint(c.want[i]) {
				t.Errorf("%s %s holds %v, want %v", c.name, id, sr.Values, c.want[i])
			}
		}
	}
}

func TestTenantRoutingIsolation(t *testing.T) {
	alpha, beta := newTenantStore(t), newTenantStore(t)
	addr := newTenantTestServer(t, &fakeRouter{
		def:   "alpha",
		sinks: map[string]Sink{"alpha": alpha, "beta": beta},
	})

	a, err := DialTenant(addr, "srv-01", "alpha")
	if err != nil {
		t.Fatalf("DialTenant alpha: %v", err)
	}
	defer a.Close()
	b, err := DialTenant(addr, "srv-01", "beta")
	if err != nil {
		t.Fatalf("DialTenant beta: %v", err)
	}
	defer b.Close()
	legacy, err := Dial(addr, "srv-02")
	if err != nil {
		t.Fatalf("Dial legacy: %v", err)
	}
	defer legacy.Close()

	batch := sampleBatch(10)
	if err := a.Send(batch); err != nil {
		t.Fatalf("alpha send: %v", err)
	}
	if err := b.Send(batch[:4]); err != nil {
		t.Fatalf("beta send: %v", err)
	}
	// The legacy hello has no tenant field; the router maps it to the
	// default tenant, so pre-tenancy agents keep working unchanged.
	legacyBatch := make([]tsdb.Sample, 6)
	for i := range legacyBatch {
		legacyBatch[i] = tsdb.Sample{
			ID:    timeseries.MeasurementID{Machine: "srv-02", Metric: "mem"},
			Time:  timeseries.MonitoringStart.Add(time.Duration(i) * timeseries.SampleStep),
			Value: float64(i),
		}
	}
	if err := legacy.Send(legacyBatch); err != nil {
		t.Fatalf("legacy send: %v", err)
	}

	if got := alpha.Len(batch[0].ID); got != 10 {
		t.Errorf("alpha store has %d samples, want 10", got)
	}
	if got := alpha.Len(legacyBatch[0].ID); got != 6 {
		t.Errorf("alpha store has %d legacy samples, want 6 (legacy hello must land on the default tenant)", got)
	}
	if got := beta.Len(batch[0].ID); got != 4 {
		t.Errorf("beta store has %d samples, want 4", got)
	}
}

func TestTenantUnknownRefused(t *testing.T) {
	alpha := newTenantStore(t)
	addr := newTenantTestServer(t, &fakeRouter{
		def:   "alpha",
		sinks: map[string]Sink{"alpha": alpha},
	})
	ghost, err := DialTenant(addr, "srv-01", "ghost")
	if err != nil {
		// The server may close the connection before the dial completes.
		return
	}
	defer ghost.Close()
	if err := ghost.Send(sampleBatch(5)); err == nil {
		t.Error("send as unknown tenant succeeded; want refused connection")
	}
	if got := alpha.Len(sampleBatch(1)[0].ID); got != 0 {
		t.Errorf("unknown tenant's samples reached the default store (%d)", got)
	}
}

func TestTenantRateLimitThrottles(t *testing.T) {
	alpha := newTenantStore(t)
	addr := newTenantTestServer(t, &fakeRouter{
		def:    "alpha",
		sinks:  map[string]Sink{"alpha": alpha},
		rates:  map[string]float64{"alpha": 10},
		bursts: map[string]int{"alpha": 20},
	})
	a, err := DialTenant(addr, "srv-01", "alpha")
	if err != nil {
		t.Fatalf("DialTenant: %v", err)
	}
	defer a.Close()

	// 30 samples exceed the 20-token bucket: the whole batch is refused
	// with a throttle hint, and no tokens are consumed.
	err = a.Send(sampleBatch(30))
	var pe *PartialSendError
	if !errors.As(err, &pe) || pe.Sent != 0 || pe.Err != nil {
		t.Fatalf("oversized send: got %v, want healthy ack-0 PartialSendError", err)
	}
	if hint := a.LastHint(); hint.Delay <= 0 {
		t.Errorf("throttled ack carried no delay hint: %+v", hint)
	}
	// A batch within the burst passes immediately.
	if err := a.Send(sampleBatch(15)); err != nil {
		t.Fatalf("within-burst send: %v", err)
	}
	if got := alpha.Len(sampleBatch(1)[0].ID); got != 15 {
		t.Errorf("store has %d samples, want 15", got)
	}
}

// promSeries counts non-comment series lines in the process registry's
// Prometheus exposition that contain substr (e.g. a label match like
// `tenant="gamma"`). Tests use unique label values so counts are
// unaffected by series other tests created.
func promSeries(t *testing.T, substr string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

func TestForgetTenantDeletesSeriesWhileAgentsConnected(t *testing.T) {
	gamma, delta := newTenantStore(t), newTenantStore(t)
	srv, err := NewTenantServer(&fakeRouter{
		def:   "gamma",
		sinks: map[string]Sink{"gamma": gamma, "delta": delta},
	}, nil)
	if err != nil {
		t.Fatalf("NewTenantServer: %v", err)
	}
	// The zero flow config still installs the rate meter, so per-agent
	// mcorr_flow_agent_rate series exist and can leak.
	srv.SetFlow(FlowConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	dial := func(agent, tenant string) *Agent {
		t.Helper()
		a, err := DialTenant(addr.String(), agent, tenant)
		if err != nil {
			t.Fatalf("DialTenant(%s, %s): %v", agent, tenant, err)
		}
		t.Cleanup(func() { a.Close() })
		return a
	}
	g1 := dial("ft-gamma-1", "gamma")
	gShared := dial("ft-shared", "gamma")
	dShared := dial("ft-shared", "delta") // same agent name serving another tenant
	d1 := dial("ft-delta-1", "delta")

	// Send waits for the ack, so after each call the server has metered
	// the batch and every label child exists. Each agent writes its own
	// measurement so batches landing in the same store never look stale.
	batch := func(machine string) []tsdb.Sample {
		out := make([]tsdb.Sample, 5)
		for i := range out {
			out[i] = tsdb.Sample{
				ID:    timeseries.MeasurementID{Machine: machine, Metric: "cpu"},
				Time:  timeseries.MonitoringStart.Add(time.Duration(i) * timeseries.SampleStep),
				Value: float64(i),
			}
		}
		return out
	}
	for name, a := range map[string]*Agent{
		"ft-gamma-1": g1, "ft-shared-g": gShared, "ft-shared-d": dShared, "ft-delta-1": d1,
	} {
		if err := a.Send(batch(name)); err != nil {
			t.Fatalf("send as %s: %v", name, err)
		}
	}

	before := map[string]int{
		`tenant="ft-t-gamma"`: 0, // guard against accidental matches
		`tenant="gamma"`:      1, // mcorr_flow_tenant_samples_total
		`agent="ft-gamma-1"`:  2, // last_seen + agent_rate
		`agent="ft-shared"`:   2,
		`agent="ft-delta-1"`:  2,
		`tenant="delta"`:      1,
	}
	for substr, want := range before {
		if got := promSeries(t, substr); got != want {
			t.Fatalf("before ForgetTenant: %d series matching %s, want %d", got, substr, want)
		}
	}

	// The bug under test: none of the agents disconnect, so the per-agent
	// cleanup on last disconnect never runs. ForgetTenant must delete the
	// closed tenant's label children anyway.
	srv.ForgetTenant("gamma")

	after := map[string]int{
		`tenant="gamma"`:     0,
		`agent="ft-gamma-1"`: 0,
		// ft-shared also serves delta; its series must survive.
		`agent="ft-shared"`:  2,
		`agent="ft-delta-1"`: 2,
		`tenant="delta"`:     1,
	}
	for substr, want := range after {
		if got := promSeries(t, substr); got != want {
			t.Errorf("after ForgetTenant: %d series matching %s, want %d", got, substr, want)
		}
	}

	// Deleting label children must not unregister the families themselves.
	names := obs.Default().MetricNames()
	for _, fam := range []string{"mcorr_flow_tenant_samples_total", "mcorr_collector_agent_last_seen_seconds", "mcorr_flow_agent_rate"} {
		found := false
		for _, n := range names {
			if n == fam {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %s missing from MetricNames after ForgetTenant", fam)
		}
	}

	// The surviving tenant's agents are still live connections.
	if err := d1.Send(sampleBatch(3)); err != nil {
		t.Fatalf("delta send after ForgetTenant: %v", err)
	}
}

func TestTenantLimiterRefill(t *testing.T) {
	l := &tenantLimiter{buckets: make(map[string]*tokenBucket)}
	now := time.Unix(1000, 0)

	ok, _, _ := l.take("a", 10, 5, 5, now)
	if !ok {
		t.Fatal("first take within burst refused")
	}
	ok, wait, credit := l.take("a", 10, 5, 5, now)
	if ok || wait <= 0 {
		t.Fatalf("empty bucket: ok=%v wait=%v", ok, wait)
	}
	if credit != 0 {
		t.Errorf("credit = %d, want 0", credit)
	}
	// Half a second at 10/s refills 5 tokens.
	if ok, _, _ = l.take("a", 10, 5, 5, now.Add(500*time.Millisecond)); !ok {
		t.Error("refilled bucket refused")
	}
	// Buckets are independent per tenant.
	if ok, _, _ = l.take("b", 10, 5, 5, now); !ok {
		t.Error("fresh tenant bucket refused")
	}
	// burst <= 0 defaults to max(rate, MaxBatch): a full MaxBatch passes.
	if ok, _, _ = l.take("c", 1, 0, MaxBatch, now); !ok {
		t.Error("default burst refused a MaxBatch batch")
	}
}

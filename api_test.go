package mcorr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/timeseries"
)

// lagAPIDataset builds a three-measurement workload with a known causal
// lag: y is x delayed by exactly lagSteps grid rows, z is independent
// noise. The correlate endpoint must rank y first and detect the lag.
func lagAPIDataset(t *testing.T, days, lagSteps int) *timeseries.Dataset {
	t.Helper()
	n := days * timeseries.SamplesPerDay
	rng := rand.New(rand.NewSource(99))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ds := timeseries.NewDataset()
	for metric, vals := range map[string]func(i int) float64{
		"x": func(i int) float64 { return x[i] },
		"y": func(i int) float64 {
			if i < lagSteps {
				return rng.NormFloat64()
			}
			return x[i-lagSteps]
		},
		"z": func(i int) float64 { return rng.NormFloat64() },
	} {
		s, err := timeseries.NewSeries(
			timeseries.MeasurementID{Machine: "m1", Metric: metric},
			timeseries.MonitoringStart, timeseries.SampleStep)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Append(vals(i))
		}
		ds.Add(s)
	}
	return ds
}

// newAPIServer boots a registry holding one streaming default tenant
// (with diagnosis attached) and serves its API over httptest.
func newAPIServer(t *testing.T, streamRows int) (*httptest.Server, *timeseries.Dataset) {
	t.Helper()
	const lagSteps = 2
	ds := lagAPIDataset(t, 2, lagSteps)
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	reg := mcorr.NewTenantRegistry("")
	t.Cleanup(func() { reg.Close() })
	tn, err := reg.CreateTenant(mcorr.TenantConfig{
		Name:    mcorr.DefaultTenant,
		History: ds.Slice(timeseries.MonitoringStart, day1),
		Options: []mcorr.MonitorOption{mcorr.WithDiagnosis(mcorr.DiagnosisConfig{})},
	})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	for k := 0; k < streamRows; k++ {
		tm := day1.Add(time.Duration(k) * timeseries.SampleStep)
		if _, err := tn.Ingest(rowBatch(t, ds, tm)...); err != nil {
			t.Fatalf("ingest row %d: %v", k, err)
		}
	}
	srv := httptest.NewServer(mcorr.NewTenantAPI(reg))
	t.Cleanup(srv.Close)
	return srv, ds
}

func postCorrelate(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/api/v1/correlate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST correlate: %v", err)
	}
	return resp
}

func decodeEnvelope(t *testing.T, resp *http.Response) (code, msg string) {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return env.Error.Code, env.Error.Message
}

type correlateResultJSON struct {
	Measurement string   `json:"measurement"`
	Correlation float64  `json:"correlation"`
	Lag         int      `json:"lag"`
	Samples     int      `json:"samples"`
	Fitness     *float64 `json:"fitness"`
}

type correlateResponseJSON struct {
	Anchor string `json:"anchor"`
	Window struct {
		Start string `json:"start"`
		End   string `json:"end"`
		Rows  int    `json:"rows"`
	} `json:"window"`
	Lags struct {
		Min int `json:"min"`
		Max int `json:"max"`
	} `json:"lags"`
	Results []correlateResultJSON `json:"results"`
	Engine  struct {
		Tenant       string  `json:"tenant"`
		Steps        int     `json:"steps"`
		Measurements int     `json:"measurements"`
		StepSeconds  float64 `json:"step_seconds"`
	} `json:"engine"`
}

// TestCorrelateDetectsSeededLag is the endpoint's acceptance test: with
// y seeded as x delayed by 2 rows, POST correlate must rank y first at
// lag +2 with near-unit correlation, z last.
func TestCorrelateDetectsSeededLag(t *testing.T) {
	srv, _ := newAPIServer(t, 120)
	resp := postCorrelate(t, srv, `{"anchor":"x@m1","window":{"last":100},"lags":{"min":-4,"max":4}}`)
	if resp.StatusCode != http.StatusOK {
		code, msg := decodeEnvelope(t, resp)
		t.Fatalf("correlate: status %d (%s: %s)", resp.StatusCode, code, msg)
	}
	defer resp.Body.Close()
	var out correlateResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if out.Anchor != "x@m1" || out.Window.Rows != 100 {
		t.Errorf("anchor=%q rows=%d, want x@m1/100", out.Anchor, out.Window.Rows)
	}
	if out.Lags.Min != -4 || out.Lags.Max != 4 {
		t.Errorf("lags echoed as [%d,%d]", out.Lags.Min, out.Lags.Max)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2 (y and z)", len(out.Results))
	}
	top := out.Results[0]
	if top.Measurement != "y@m1" {
		t.Fatalf("top candidate %q, want the seeded y@m1 (results: %+v)", top.Measurement, out.Results)
	}
	if top.Lag != 2 {
		t.Errorf("detected lag %d, want +2 (y trails x by 2 rows)", top.Lag)
	}
	if top.Correlation < 0.99 {
		t.Errorf("correlation at lag 2 = %v, want ~1", top.Correlation)
	}
	if top.Samples < 90 {
		t.Errorf("overlap %d, want >= 90 of 100 rows", top.Samples)
	}
	if top.Fitness == nil {
		t.Error("fitness missing for a fleet-scored measurement")
	}
	if z := out.Results[1]; z.Measurement != "z@m1" {
		t.Errorf("second candidate %q, want z@m1", z.Measurement)
	}
	if out.Engine.Tenant != mcorr.DefaultTenant || out.Engine.Measurements != 3 {
		t.Errorf("engine block = %+v", out.Engine)
	}
	if out.Engine.StepSeconds != timeseries.SampleStep.Seconds() {
		t.Errorf("step_seconds = %v", out.Engine.StepSeconds)
	}

	// The explicit {start,end} window form resolves to the same grid.
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	body := fmt.Sprintf(`{"anchor":"x@m1","candidates":["y@m1"],"window":{"start":%q,"end":%q}}`,
		day1.Format(time.RFC3339), day1.Add(120*timeseries.SampleStep).Format(time.RFC3339))
	resp = postCorrelate(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit-window correlate: status %d", resp.StatusCode)
	}
	out = correlateResponseJSON{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	resp.Body.Close()
	if out.Window.Rows != 120 || len(out.Results) != 1 || out.Results[0].Lag != 2 {
		t.Errorf("explicit window: rows=%d results=%+v", out.Window.Rows, out.Results)
	}
}

// TestAPIErrorContract locks the shared error envelope: status and code
// for every failure mode of the serving tier.
func TestAPIErrorContract(t *testing.T) {
	srv, _ := newAPIServer(t, 40)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"correlate GET", "GET", "/api/v1/correlate", "", 405, "method_not_allowed"},
		{"tenants POST", "POST", "/api/v1/tenants", "{}", 405, "method_not_allowed"},
		{"invalid JSON", "POST", "/api/v1/correlate", "{", 400, "bad_request"},
		{"trailing data", "POST", "/api/v1/correlate", `{"anchor":"x@m1","window":{"last":5}}{}`, 400, "bad_request"},
		{"unknown field", "POST", "/api/v1/correlate", `{"anchor":"x@m1","window":{"last":5},"nope":1}`, 400, "bad_request"},
		{"missing anchor", "POST", "/api/v1/correlate", `{"window":{"last":5}}`, 400, "bad_request"},
		{"missing window", "POST", "/api/v1/correlate", `{"anchor":"x@m1"}`, 400, "bad_request"},
		{"both window forms", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","window":{"last":5,"start":"2008-05-30T00:00:00Z","end":"2008-05-31T00:00:00Z"}}`,
			400, "bad_request"},
		{"negative last", "POST", "/api/v1/correlate", `{"anchor":"x@m1","window":{"last":-3}}`, 400, "bad_request"},
		{"start after end", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","window":{"start":"2008-05-31T00:00:00Z","end":"2008-05-30T00:00:00Z"}}`,
			400, "invalid_window"},
		{"start equals end", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","window":{"start":"2008-05-31T00:00:00Z","end":"2008-05-31T00:00:00Z"}}`,
			400, "invalid_window"},
		{"window too wide", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","window":{"start":"2008-01-01T00:00:00Z","end":"2010-01-01T00:00:00Z"}}`,
			400, "bad_request"},
		{"lags inverted", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","window":{"last":5},"lags":{"min":3,"max":-3}}`, 400, "bad_request"},
		{"lags out of range", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","window":{"last":5},"lags":{"min":-200,"max":200}}`, 400, "bad_request"},
		{"unknown tenant", "POST", "/api/v1/correlate",
			`{"tenant":"ghost","anchor":"x@m1","window":{"last":5}}`, 404, "unknown_tenant"},
		{"unknown anchor", "POST", "/api/v1/correlate",
			`{"anchor":"missing@m1","window":{"last":5}}`, 404, "unknown_measurement"},
		{"unknown candidate", "POST", "/api/v1/correlate",
			`{"anchor":"x@m1","candidates":["missing@m1"],"window":{"last":5}}`, 404, "unknown_measurement"},
		{"fitness unknown tenant", "GET", "/api/v1/fitness?tenant=ghost", "", 404, "unknown_tenant"},
		{"topology unknown tenant", "GET", "/api/v1/topology?tenant=ghost", "", 404, "unknown_tenant"},
		{"incidents unknown tenant", "GET", "/api/v1/incidents?tenant=ghost", "", 404, "unknown_tenant"},
		{"fitness unknown measurement", "GET", "/api/v1/fitness?measurement=missing@m1", "", 404, "unknown_measurement"},
		{"unknown endpoint", "GET", "/api/v1/nope", "", 404, "not_found"},
	}
	// Oversized body: beyond the 1 MiB cap.
	huge := `{"anchor":"` + strings.Repeat("a", 1<<20) + `","window":{"last":5}}`
	cases = append(cases, struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{"oversized body", "POST", "/api/v1/correlate", huge, 413, "too_large"})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			code, msg := decodeEnvelope(t, resp)
			if resp.StatusCode != tc.status || code != tc.code {
				t.Errorf("got status=%d code=%q (%s), want %d/%q",
					resp.StatusCode, code, msg, tc.status, tc.code)
			}
		})
	}
}

// TestTenantScopedEndpoints exercises the happy paths of the dispatched
// per-tenant endpoints and the registry listing.
func TestTenantScopedEndpoints(t *testing.T) {
	srv, _ := newAPIServer(t, 40)
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	status, body := get("/api/v1/tenants")
	if status != http.StatusOK {
		t.Fatalf("tenants: status %d: %s", status, body)
	}
	var tl struct {
		Total   int `json:"total"`
		Tenants []struct {
			Name         string `json:"name"`
			Durable      bool   `json:"durable"`
			Measurements int    `json:"measurements"`
			Steps        int    `json:"steps"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatalf("tenants payload: %v", err)
	}
	if tl.Total != 1 || tl.Tenants[0].Name != mcorr.DefaultTenant ||
		tl.Tenants[0].Measurements != 3 || tl.Tenants[0].Steps < 39 || tl.Tenants[0].Durable {
		t.Errorf("tenants payload = %+v", tl)
	}

	// Explicit and implicit tenant scoping resolve to the same tenant.
	for _, path := range []string{"/api/v1/topology", "/api/v1/topology?tenant=" + mcorr.DefaultTenant} {
		status, body = get(path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, body)
		}
		if !bytes.Contains(body, []byte(`"x@m1"`)) {
			t.Errorf("%s payload lacks measurement x@m1", path)
		}
	}
	if status, body = get("/api/v1/fitness"); status != http.StatusOK || !bytes.Contains(body, []byte(`"q"`)) {
		t.Errorf("fitness: status %d: %s", status, body)
	}
	if status, body = get("/api/v1/incidents"); status != http.StatusOK {
		t.Errorf("incidents: status %d: %s", status, body)
	}
}

// TestCorrelateTrailingWindowBeforeFirstRow pins the invalid_window
// contract for the last-form boundary: a tenant that has scored no rows
// yet has no cursor, so any trailing window rounds to zero samples and
// must be refused with the invalid_window envelope — not answered with
// an empty 200 against a nonexistent grid range.
func TestCorrelateTrailingWindowBeforeFirstRow(t *testing.T) {
	srv, _ := newAPIServer(t, 0)
	resp := postCorrelate(t, srv, `{"anchor":"x@m1","window":{"last":5}}`)
	code, msg := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusBadRequest || code != "invalid_window" {
		t.Fatalf("correlate before first row: status=%d code=%q (%s), want 400/invalid_window",
			resp.StatusCode, code, msg)
	}
}

// TestCorrelateConcurrentWithIngest runs correlate queries beside an
// ingest stream in which every second row ends a discovery round, where
// the discoverer rewrites its admitted set and scores. Correlate must take
// its fleet and discovery snapshots under the tenant lock; read after the
// unlock they race with the round end, and `go test -race` reports it
// here. The fleet is wide (48 measurements) and the budget small so that a
// query's unlocked part and a row's locked part take about as long, and
// the stream runs unpaced so one is always under way beside the other.
func TestCorrelateConcurrentWithIngest(t *testing.T) {
	const l, warmRows, roundRows = 48, 24, 2
	const days = 3
	rng := rand.New(rand.NewSource(7))
	ds := timeseries.NewDataset()
	for m := 0; m < l; m++ {
		s, err := timeseries.NewSeries(
			timeseries.MeasurementID{Machine: fmt.Sprintf("m%02d", m/8), Metric: fmt.Sprintf("k%d", m%8)},
			timeseries.MonitoringStart, timeseries.SampleStep)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < days*timeseries.SamplesPerDay; i++ {
			s.Append(rng.NormFloat64())
		}
		ds.Add(s)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	reg := mcorr.NewTenantRegistry("")
	t.Cleanup(func() { reg.Close() })
	tn, err := reg.CreateTenant(mcorr.TenantConfig{
		Name:    mcorr.DefaultTenant,
		History: ds.Slice(timeseries.MonitoringStart, day1),
		Options: []mcorr.MonitorOption{mcorr.WithDiscovery(mcorr.DiscoveryConfig{Budget: 8, RoundRows: roundRows})},
	})
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	batches := make([][]mcorr.Sample, (days-1)*timeseries.SamplesPerDay)
	for k := range batches {
		batches[k] = rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))
	}
	for k := 0; k < warmRows; k++ {
		if _, err := tn.Ingest(batches[k]...); err != nil {
			t.Fatalf("ingest row %d: %v", k, err)
		}
	}
	srv := httptest.NewServer(mcorr.NewTenantAPI(reg))
	t.Cleanup(srv.Close)

	// The stream crosses (len(batches)-warmRows)/roundRows = 228 round
	// boundaries while the loop below keeps a query in flight.
	done := make(chan error, 1)
	go func() {
		for k := warmRows; k < len(batches); k++ {
			if _, err := tn.Ingest(batches[k]...); err != nil {
				done <- fmt.Errorf("ingest row %d: %w", k, err)
				return
			}
		}
		done <- nil
	}()
	for queries := 0; ; queries++ {
		resp := postCorrelate(t, srv, `{"anchor":"k0@m00","window":{"last":20}}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("correlate during ingest: status %d", resp.StatusCode)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d queries beside %d rows", queries+1, len(batches)-warmRows)
			return
		default:
		}
	}
}

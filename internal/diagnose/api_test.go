package diagnose

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// fakeFleet is a minimal FleetView for the topology endpoint.
type fakeFleet struct {
	means map[manager.Pair]float64
}

func (f fakeFleet) IDs() []timeseries.MeasurementID {
	return []timeseries.MeasurementID{mCPU1, mNET1}
}

func (f fakeFleet) PairStates() []manager.PairState {
	return []manager.PairState{
		{Pair: manager.Pair{A: mCPU1, B: mNET1}, Steady: true, Scored: false, Fitness: 0.83},
	}
}

func (f fakeFleet) PairMeans() map[manager.Pair]float64 { return f.means }

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
		}
	}
	return resp.StatusCode
}

func TestAPIIncidentsAndFitness(t *testing.T) {
	e := NewEngine(Config{})
	faultStream(e, 8, 3, 0)
	srv := httptest.NewServer(NewAPI(e, nil))
	defer srv.Close()

	var list incidentsResponse
	if code := getJSON(t, srv, "/api/v1/incidents", &list); code != 200 {
		t.Fatalf("/incidents = %d", code)
	}
	if list.Open != 1 || list.Total != 1 || len(list.Incidents) != 1 {
		t.Fatalf("incidents payload = %+v", list)
	}
	d := list.Incidents[0]
	if d.State != StateOpen || d.Suspect != "m1" {
		t.Errorf("digest = state %q suspect %q", d.State, d.Suspect)
	}

	var one Digest
	if code := getJSON(t, srv, "/api/v1/incidents/"+d.ID, &one); code != 200 {
		t.Fatalf("/incidents/%s = %d", d.ID, code)
	}
	if one.ID != d.ID || len(one.Candidates) != len(d.Candidates) {
		t.Errorf("single-incident payload diverges from list: %+v vs %+v", one, d)
	}
	if code := getJSON(t, srv, "/api/v1/incidents/inc-999-nope", nil); code != 404 {
		t.Errorf("unknown incident = %d, want 404", code)
	}

	var fit fitnessResponse
	if code := getJSON(t, srv, "/api/v1/fitness", &fit); code != 200 {
		t.Fatalf("/fitness = %d", code)
	}
	if fit.Measurement != "system" || len(fit.Points) != 11 {
		t.Errorf("system fitness = %q with %d points, want 11", fit.Measurement, len(fit.Points))
	}
	if code := getJSON(t, srv, "/api/v1/fitness?measurement=cpu@m1&window=4", &fit); code != 200 {
		t.Fatalf("/fitness?measurement = %d", code)
	}
	if fit.Measurement != "cpu@m1" || len(fit.Points) != 4 {
		t.Errorf("measurement fitness = %q with %d points, want 4", fit.Measurement, len(fit.Points))
	}
	if code := getJSON(t, srv, "/api/v1/fitness?measurement=ghost@m9", nil); code != 404 {
		t.Errorf("unknown measurement = %d, want 404", code)
	}
	if code := getJSON(t, srv, "/api/v1/fitness?window=-1", nil); code != 400 {
		t.Errorf("negative window = %d, want 400", code)
	}
	if code := getJSON(t, srv, "/api/v1/bogus", nil); code != 404 {
		t.Errorf("unknown endpoint = %d, want 404", code)
	}
}

func TestAPITopology(t *testing.T) {
	e := NewEngine(Config{})
	mean := 0.91
	srv := httptest.NewServer(NewAPI(e, fakeFleet{
		means: map[manager.Pair]float64{{A: mCPU1, B: mNET1}: mean},
	}))
	defer srv.Close()

	var topo topologyResponse
	if code := getJSON(t, srv, "/api/v1/topology", &topo); code != 200 {
		t.Fatalf("/topology = %d", code)
	}
	if len(topo.Measurements) != 2 || topo.Measurements[0] != "cpu@m1" {
		t.Errorf("measurements = %v", topo.Measurements)
	}
	if len(topo.Pairs) != 1 {
		t.Fatalf("pairs = %+v", topo.Pairs)
	}
	p := topo.Pairs[0]
	if p.A != "cpu@m1" || p.B != "net@m1" || !p.Steady || p.Scored || p.Fitness != 0.83 {
		t.Errorf("pair = %+v", p)
	}
	if p.Mean == nil || *p.Mean != mean {
		t.Errorf("pair mean = %v, want %v", p.Mean, mean)
	}

	// Without a fleet the endpoint answers 404, not a panic.
	bare := httptest.NewServer(NewAPI(e, nil))
	defer bare.Close()
	if code := getJSON(t, bare, "/api/v1/topology", nil); code != 404 {
		t.Errorf("no-fleet topology = %d, want 404", code)
	}
}

package diagnose

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// FleetView is the slice of a scoring fleet the topology endpoint
// reads. *manager.Manager satisfies it, on its own or behind the
// discovery tier.
type FleetView interface {
	// IDs returns the watched measurements.
	IDs() []timeseries.MeasurementID
	// PairStates returns every link's live scheduler state in canonical
	// pair order.
	PairStates() []manager.PairState
	// PairMeans returns the accumulated mean fitness per link (nil
	// unless pair-mean tracking is on).
	PairMeans() map[manager.Pair]float64
}

// DiscoveryView is the slice of the discovery tier the topology endpoint
// reads when a bounded pair graph is active (see internal/discover).
type DiscoveryView interface {
	// AdmissionScores returns each admitted pair's last best-lag
	// correlation estimate.
	AdmissionScores() map[manager.Pair]float64
	// BudgetInfo returns the admitted pair count, the configured budget
	// (0 = unlimited) and the full candidate count l(l−1)/2.
	BudgetInfo() (admitted, budget, candidates int)
}

// API serves the diagnosis engine over HTTP as versioned JSON:
//
//	/api/v1/incidents        all retained incidents, open first
//	/api/v1/incidents/{id}   one incident digest
//	/api/v1/fitness          ?measurement=metric@machine&window=N
//	                         fitness history (system when measurement
//	                         is omitted)
//	/api/v1/topology         the pair graph with per-pair fitness and
//	                         dirty/steady state
//
// Mount it at /api/ (it routes on the full path). fleet may be nil, in
// which case /api/v1/topology answers 404. eng may also be nil (a
// tenant without a diagnosis engine still serves topology); the
// incident and fitness endpoints then answer 404.
//
// Errors use the shared obs.APIError envelope.
type API struct {
	eng   *Engine
	fleet FleetView
	disc  DiscoveryView
}

// NewAPI builds the HTTP surface over an engine and an optional fleet.
func NewAPI(eng *Engine, fleet FleetView) *API {
	obs.RegisterRoute("GET", "/api/v1/incidents")
	obs.RegisterRoute("GET", "/api/v1/incidents/{id}")
	obs.RegisterRoute("GET", "/api/v1/fitness")
	obs.RegisterRoute("GET", "/api/v1/topology")
	return &API{eng: eng, fleet: fleet}
}

// SetDiscovery attaches the discovery tier so /api/v1/topology reports
// per-pair admission scores and the budget occupancy. Nil detaches.
func (a *API) SetDiscovery(d DiscoveryView) { a.disc = d }

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	switch {
	case path == "incidents":
		a.serveIncidents(w)
	case strings.HasPrefix(path, "incidents/"):
		a.serveIncident(w, strings.TrimPrefix(path, "incidents/"))
	case path == "fitness":
		a.serveFitness(w, r)
	case path == "topology":
		a.serveTopology(w)
	default:
		obs.WriteJSONError(w, http.StatusNotFound, "not_found",
			"unknown endpoint; see /api/v1/incidents /api/v1/fitness /api/v1/topology")
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// incidentsResponse is the /api/v1/incidents payload.
type incidentsResponse struct {
	Open      int      `json:"open"`
	Total     int      `json:"total"`
	Incidents []Digest `json:"incidents"`
}

func (a *API) serveIncidents(w http.ResponseWriter) {
	if a.eng == nil {
		obs.WriteJSONError(w, http.StatusNotFound, "not_found", "no diagnosis engine attached")
		return
	}
	incidents := a.eng.Incidents()
	if incidents == nil {
		incidents = []Digest{}
	}
	writeJSON(w, incidentsResponse{
		Open:      a.eng.OpenCount(),
		Total:     len(incidents),
		Incidents: incidents,
	})
}

func (a *API) serveIncident(w http.ResponseWriter, id string) {
	if a.eng == nil {
		obs.WriteJSONError(w, http.StatusNotFound, "not_found", "no diagnosis engine attached")
		return
	}
	d, ok := a.eng.Incident(id)
	if !ok {
		obs.WriteJSONError(w, http.StatusNotFound, "unknown_incident", "no incident "+id)
		return
	}
	writeJSON(w, d)
}

// fitnessResponse is the /api/v1/fitness payload.
type fitnessResponse struct {
	// Measurement is "metric@machine", or "system" for the system
	// aggregate.
	Measurement string         `json:"measurement"`
	Points      []FitnessPoint `json:"points"`
}

func (a *API) serveFitness(w http.ResponseWriter, r *http.Request) {
	if a.eng == nil {
		obs.WriteJSONError(w, http.StatusNotFound, "not_found", "no diagnosis engine attached")
		return
	}
	q := r.URL.Query()
	window := 0
	if ws := q.Get("window"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil || n < 0 {
			obs.WriteJSONError(w, http.StatusBadRequest, "bad_request", "window must be a non-negative integer")
			return
		}
		window = n
	}
	name := q.Get("measurement")
	if name == "" || name == "system" {
		pts := a.eng.SystemHistory(window)
		if pts == nil {
			pts = []FitnessPoint{}
		}
		writeJSON(w, fitnessResponse{Measurement: "system", Points: pts})
		return
	}
	pts, ok := a.eng.HistoryByName(name, window)
	if !ok {
		obs.WriteJSONError(w, http.StatusNotFound, "unknown_measurement", "unknown measurement "+name)
		return
	}
	if pts == nil {
		pts = []FitnessPoint{}
	}
	writeJSON(w, fitnessResponse{Measurement: name, Points: pts})
}

// topologyPair is one edge of the pair graph in /api/v1/topology.
type topologyPair struct {
	A string `json:"a"`
	B string `json:"b"`
	// Steady reports the incremental scheduler's dirty/steady state:
	// steady pairs carry a cached outcome forward instead of re-scoring.
	Steady bool `json:"steady"`
	Scored bool `json:"scored"`
	// Fitness is the link's last Q^{a,b}.
	Fitness float64 `json:"fitness"`
	// Mean is the link's accumulated mean fitness (omitted unless the
	// fleet tracks pair means).
	Mean *float64 `json:"mean,omitempty"`
	// Admission is the discovery tier's last correlation estimate for
	// this link (omitted when no discovery tier is attached).
	Admission *float64 `json:"admission,omitempty"`
}

// topologyDiscovery summarizes the discovery tier's budget state in
// /api/v1/topology (present only when a bounded pair graph is active).
type topologyDiscovery struct {
	Admitted   int `json:"admitted"`
	Budget     int `json:"budget"` // 0 = unlimited
	Candidates int `json:"candidates"`
	// Occupancy is admitted/budget (admitted/candidates when unlimited).
	Occupancy float64 `json:"occupancy"`
}

// topologyResponse is the /api/v1/topology payload.
type topologyResponse struct {
	Measurements []string           `json:"measurements"`
	Pairs        []topologyPair     `json:"pairs"`
	Discovery    *topologyDiscovery `json:"discovery,omitempty"`
}

func (a *API) serveTopology(w http.ResponseWriter) {
	if a.fleet == nil {
		obs.WriteJSONError(w, http.StatusNotFound, "not_found", "no fleet attached")
		return
	}
	ids := a.fleet.IDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.String()
	}
	means := a.fleet.PairMeans()
	var scores map[manager.Pair]float64
	var disc *topologyDiscovery
	if a.disc != nil {
		scores = a.disc.AdmissionScores()
		admitted, budget, candidates := a.disc.BudgetInfo()
		den := budget
		if den == 0 {
			den = candidates
		}
		occ := 0.0
		if den > 0 {
			occ = float64(admitted) / float64(den)
		}
		disc = &topologyDiscovery{Admitted: admitted, Budget: budget, Candidates: candidates, Occupancy: occ}
	}
	states := a.fleet.PairStates()
	pairs := make([]topologyPair, len(states))
	for i, st := range states {
		tp := topologyPair{
			A:       st.Pair.A.String(),
			B:       st.Pair.B.String(),
			Steady:  st.Steady,
			Scored:  st.Scored,
			Fitness: st.Fitness,
		}
		if m, ok := means[st.Pair]; ok {
			mv := m
			tp.Mean = &mv
		}
		if r, ok := scores[st.Pair]; ok {
			rv := r
			tp.Admission = &rv
		}
		pairs[i] = tp
	}
	writeJSON(w, topologyResponse{Measurements: names, Pairs: pairs, Discovery: disc})
}

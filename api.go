package mcorr

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/tsdb"
)

// Query-surface limits. The correlate endpoint is an interactive ops
// tool, not a batch engine, so windows and fan-out are bounded.
const (
	// maxCorrelateBody caps the correlate request body.
	maxCorrelateBody = 1 << 20
	// maxCorrelateCandidates caps the explicit candidate list.
	maxCorrelateCandidates = 256
	// maxCorrelateLag caps |lag| in steps.
	maxCorrelateLag = 64
	// maxWindowRows caps the window length in grid rows.
	maxWindowRows = 100000
	// defaultLagSpan is the lag range scanned when the request names none.
	defaultLagSpan = 4
	// minCorrelateSamples is the overlap below which a lag's correlation
	// is undefined and skipped.
	minCorrelateSamples = 3
)

// TenantAPI is the registry-level HTTP query surface, mounted under
// /api/v1/ on every ops server:
//
//	GET  /api/v1/tenants       the open tenants with footprint + quotas
//	POST /api/v1/correlate     windowed lagged correlation against the
//	                           tenant's time-series store
//	GET  /api/v1/incidents     dispatched to the tenant named by
//	GET  /api/v1/incidents/{id}  ?tenant= (default "default")
//	GET  /api/v1/fitness
//	GET  /api/v1/topology
//
// Errors use the shared obs.APIError envelope.
type TenantAPI struct {
	reg *Registry
}

// NewTenantAPI builds the HTTP surface over a tenant registry.
// NewTenantRegistry mounts it automatically; construct one directly only
// to serve a registry on a mux of your own.
func NewTenantAPI(reg *Registry) *TenantAPI {
	obs.RegisterRoute("GET", "/api/v1/tenants")
	obs.RegisterRoute("POST", "/api/v1/correlate")
	return &TenantAPI{reg: reg}
}

// ServeHTTP implements http.Handler.
func (a *TenantAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	switch {
	case path == "tenants":
		a.serveTenants(w, r)
	case path == "correlate":
		a.serveCorrelate(w, r)
	case path == "incidents" || strings.HasPrefix(path, "incidents/") ||
		path == "fitness" || path == "topology":
		// Tenant-scoped endpoints: resolve ?tenant= and delegate to the
		// tenant's own diagnosis/topology API.
		name := r.URL.Query().Get("tenant")
		if name == "" {
			name = DefaultTenant
		}
		t, ok := a.reg.Tenant(name)
		if !ok {
			obs.WriteJSONError(w, http.StatusNotFound, "unknown_tenant",
				"unknown tenant "+name)
			return
		}
		t.mon.api.ServeHTTP(w, r)
	default:
		obs.WriteJSONError(w, http.StatusNotFound, "not_found",
			"unknown endpoint; see /api/v1/tenants /api/v1/correlate /api/v1/incidents /api/v1/fitness /api/v1/topology")
	}
}

func writeAPIJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError carries an HTTP status and envelope code out of the
// correlate pipeline so the handler can map failures faithfully.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// invalidWindow builds the invalid_window envelope for degenerate query
// windows — zero-length ranges, ranges that round to zero grid rows, or
// trailing windows against a tenant that has no scoring grid yet. These
// used to surface as generic bad_request (or, for some shapes, an empty
// 200); the dedicated code lets clients distinguish "fix your window"
// from "fix your JSON".
func invalidWindow(msg string) *httpError {
	return &httpError{http.StatusBadRequest, "invalid_window", msg}
}

func writeHTTPError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		obs.WriteJSONError(w, he.status, he.code, he.msg)
		return
	}
	obs.WriteJSONError(w, http.StatusInternalServerError, "internal", err.Error())
}

// tenantInfo is one row of the /api/v1/tenants payload.
type tenantInfo struct {
	Name         string `json:"name"`
	Durable      bool   `json:"durable"`
	Measurements int    `json:"measurements"`
	Pairs        int    `json:"pairs"`
	Steps        int    `json:"steps"`
	// OpenIncidents is present only for tenants with a diagnosis engine.
	OpenIncidents *int        `json:"open_incidents,omitempty"`
	Quota         TenantQuota `json:"quota"`
}

// tenantsResponse is the /api/v1/tenants payload.
type tenantsResponse struct {
	Total   int          `json:"total"`
	Tenants []tenantInfo `json:"tenants"`
}

func (a *TenantAPI) serveTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		obs.WriteJSONError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"use GET for /api/v1/tenants")
		return
	}
	tenants := a.reg.Tenants()
	infos := make([]tenantInfo, len(tenants))
	for i, t := range tenants {
		fleet := t.mon.Fleet()
		info := tenantInfo{
			Name:         t.name,
			Durable:      t.mon.durable(),
			Measurements: len(fleet.IDs()),
			Pairs:        len(fleet.Pairs()),
			Steps:        fleet.Steps(),
			Quota:        t.quota,
		}
		if diag := t.mon.Diagnosis(); diag != nil {
			n := diag.OpenCount()
			info.OpenIncidents = &n
		}
		infos[i] = info
	}
	writeAPIJSON(w, tenantsResponse{Total: len(infos), Tenants: infos})
}

// correlateWindow selects the query window: either an explicit
// [start, end) range (RFC 3339) or the trailing `last` grid rows before
// the tenant's scoring cursor. Exactly one form must be used.
type correlateWindow struct {
	Start string `json:"start,omitempty"`
	End   string `json:"end,omitempty"`
	Last  int    `json:"last,omitempty"`
}

// correlateLags is the inclusive lag range scanned, in grid steps.
type correlateLags struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// correlateRequest is the POST /api/v1/correlate body.
type correlateRequest struct {
	Tenant     string          `json:"tenant,omitempty"`
	Anchor     string          `json:"anchor"`
	Candidates []string        `json:"candidates,omitempty"`
	Window     correlateWindow `json:"window"`
	Lags       *correlateLags  `json:"lags,omitempty"`
}

// correlateQuery is a validated correlate request.
type correlateQuery struct {
	tenant     string
	anchor     string
	candidates []string
	start, end time.Time // zero when the last-form window was used
	last       int       // > 0 iff the last-form window was used
	minLag     int
	maxLag     int
}

// parseCorrelateRequest validates a correlate body without touching any
// tenant state (it is the fuzz target for the endpoint). The returned
// query has tenant defaulted, candidates deduplicated in request order,
// and a non-empty lag range within [-maxCorrelateLag, maxCorrelateLag].
func parseCorrelateRequest(data []byte) (correlateQuery, error) {
	var req correlateRequest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return correlateQuery{}, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return correlateQuery{}, errors.New("trailing data after JSON body")
	}
	q := correlateQuery{tenant: req.Tenant, anchor: req.Anchor}
	if q.tenant == "" {
		q.tenant = DefaultTenant
	}
	if q.anchor == "" {
		return correlateQuery{}, errors.New("anchor is required (\"metric@machine\")")
	}
	if len(req.Candidates) > maxCorrelateCandidates {
		return correlateQuery{}, fmt.Errorf("%d candidates; max %d", len(req.Candidates), maxCorrelateCandidates)
	}
	seen := make(map[string]bool, len(req.Candidates))
	for _, c := range req.Candidates {
		if c == "" {
			return correlateQuery{}, errors.New("empty candidate name")
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		q.candidates = append(q.candidates, c)
	}

	w := req.Window
	switch {
	case w.Last != 0 && (w.Start != "" || w.End != ""):
		return correlateQuery{}, errors.New("window: use either {start,end} or {last}, not both")
	case w.Last != 0:
		if w.Last < 0 || w.Last > maxWindowRows {
			return correlateQuery{}, fmt.Errorf("window.last must be in [1, %d]", maxWindowRows)
		}
		q.last = w.Last
	case w.Start != "" || w.End != "":
		if w.Start == "" || w.End == "" {
			return correlateQuery{}, errors.New("window: start and end are both required")
		}
		start, err := time.Parse(time.RFC3339, w.Start)
		if err != nil {
			return correlateQuery{}, fmt.Errorf("window.start: %w", err)
		}
		end, err := time.Parse(time.RFC3339, w.End)
		if err != nil {
			return correlateQuery{}, fmt.Errorf("window.end: %w", err)
		}
		if start.Equal(end) {
			return correlateQuery{}, invalidWindow("window: start == end selects zero rows")
		}
		if !start.Before(end) {
			return correlateQuery{}, invalidWindow("window: start must be before end")
		}
		q.start, q.end = start, end
	default:
		return correlateQuery{}, errors.New("window is required: {\"last\": n} or {\"start\": ..., \"end\": ...}")
	}

	q.minLag, q.maxLag = -defaultLagSpan, defaultLagSpan
	if req.Lags != nil {
		if req.Lags.Min > req.Lags.Max {
			return correlateQuery{}, errors.New("lags: min must be <= max")
		}
		if req.Lags.Min < -maxCorrelateLag || req.Lags.Max > maxCorrelateLag {
			return correlateQuery{}, fmt.Errorf("lags must be within [%d, %d]", -maxCorrelateLag, maxCorrelateLag)
		}
		q.minLag, q.maxLag = req.Lags.Min, req.Lags.Max
	}
	return q, nil
}

func (a *TenantAPI) serveCorrelate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteJSONError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"use POST for /api/v1/correlate")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCorrelateBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			obs.WriteJSONError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxCorrelateBody))
			return
		}
		obs.WriteJSONError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	q, err := parseCorrelateRequest(body)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			obs.WriteJSONError(w, he.status, he.code, he.msg)
			return
		}
		obs.WriteJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	t, ok := a.reg.Tenant(q.tenant)
	if !ok {
		obs.WriteJSONError(w, http.StatusNotFound, "unknown_tenant", "unknown tenant "+q.tenant)
		return
	}
	resp, err := t.Correlate(q)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	writeAPIJSON(w, resp)
}

// correlateResult is one ranked candidate in the correlate response.
type correlateResult struct {
	Measurement string `json:"measurement"`
	// Correlation is the lagged Pearson coefficient at the detected lag
	// (0 when Samples is 0 — no lag had enough overlap or variance).
	Correlation float64 `json:"correlation"`
	// Lag is the detected lag in grid steps: positive means the candidate
	// trails the anchor by that many steps.
	Lag int `json:"lag"`
	// Samples is the overlap count behind Correlation.
	Samples int `json:"samples"`
	// Fitness is the candidate's running mean Q^a, when the fleet has
	// scored it.
	Fitness *float64 `json:"fitness,omitempty"`
	// Admission is the discovery tier's correlation estimate for the
	// (anchor, candidate) pair, when a discovery tier admitted it.
	Admission *float64 `json:"admission,omitempty"`
}

// correlateDiscovery summarizes the discovery tier in the engine block.
type correlateDiscovery struct {
	Admitted   int `json:"admitted"`
	Budget     int `json:"budget"` // 0 = unlimited
	Candidates int `json:"candidates"`
}

// correlateEngine is the engine metadata block of the correlate response.
type correlateEngine struct {
	Tenant       string              `json:"tenant"`
	Steps        int                 `json:"steps"`
	Pairs        int                 `json:"pairs"`
	Measurements int                 `json:"measurements"`
	StepSeconds  float64             `json:"step_seconds"`
	Discovery    *correlateDiscovery `json:"discovery,omitempty"`
}

// correlateResponseWindow echoes the resolved window.
type correlateResponseWindow struct {
	Start string `json:"start"`
	End   string `json:"end"`
	Rows  int    `json:"rows"`
}

// correlateResponse is the POST /api/v1/correlate payload.
type correlateResponse struct {
	Anchor  string                  `json:"anchor"`
	Window  correlateResponseWindow `json:"window"`
	Lags    correlateLags           `json:"lags"`
	Results []correlateResult       `json:"results"`
	Engine  correlateEngine         `json:"engine"`
}

// Correlate runs a validated windowed-correlation query against the
// tenant's store and fleet: the anchor series is compared to every
// candidate over the window at each lag in the range, and candidates are
// ranked by |correlation| at their best lag. Failures are *httpError
// values carrying the API status and code.
func (t *Tenant) Correlate(q correlateQuery) (*correlateResponse, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, &httpError{http.StatusNotFound, "unknown_tenant", "tenant " + t.name + " closed"}
	}
	step := t.mon.step
	cursor := t.mon.Cursor()
	// Ingest steps the fleet — and, across a discovery round boundary,
	// rewrites the admitted set — under t.mu, so the fleet and discovery
	// snapshots (small copies) are taken here, not after the unlock.
	fleet := t.mon.Fleet()
	means := fleet.MeasurementMeans()
	var admission map[Pair]float64
	var disc *correlateDiscovery
	if df := t.mon.Discovery(); df != nil {
		admission = df.AdmissionScores()
		admitted, budget, cands := df.BudgetInfo()
		disc = &correlateDiscovery{Admitted: admitted, Budget: budget, Candidates: cands}
	}
	t.mu.Unlock()

	// Resolve the window onto the store grid.
	if step <= 0 {
		return nil, invalidWindow("tenant has no scoring grid yet; no window can be resolved")
	}
	start, end := q.start, q.end
	rows := q.last
	if q.last > 0 {
		if cursor.IsZero() || fleet.Steps() == 0 {
			// No row ever scored: the trailing window ends at a cursor
			// that nothing has streamed up to, so it rounds to zero
			// samples instead of a real [start, end) range.
			return nil, invalidWindow(fmt.Sprintf("window.last=%d rounds to zero samples: tenant has scored no rows yet", q.last))
		}
		end = cursor
		start = end.Add(-time.Duration(q.last) * step)
	} else {
		rows = int(end.Sub(start) / step)
		if time.Duration(rows)*step < end.Sub(start) {
			rows++
		}
		if rows > maxWindowRows {
			return nil, &httpError{http.StatusBadRequest, "bad_request",
				fmt.Sprintf("window spans %d rows at step %s; max %d", rows, step, maxWindowRows)}
		}
	}
	if rows <= 0 {
		return nil, invalidWindow("window rounds to zero grid rows")
	}

	// Resolve measurement names against the fleet's trained set plus
	// anything streamed into the store since.
	known := make(map[string]MeasurementID, len(t.mon.ids))
	for _, id := range t.mon.ids {
		known[id.String()] = id
	}
	for _, id := range t.mon.store.IDs() {
		known[id.String()] = id
	}
	anchorID, ok := known[q.anchor]
	if !ok {
		return nil, &httpError{http.StatusNotFound, "unknown_measurement", "unknown measurement " + q.anchor}
	}
	candidates := q.candidates
	if len(candidates) == 0 {
		// Default: every fleet measurement except the anchor, in the
		// fleet's canonical order.
		for _, id := range t.mon.ids {
			if id != anchorID {
				candidates = append(candidates, id.String())
			}
		}
	}
	candIDs := make([]MeasurementID, len(candidates))
	for i, name := range candidates {
		id, ok := known[name]
		if !ok {
			return nil, &httpError{http.StatusNotFound, "unknown_measurement", "unknown measurement " + name}
		}
		candIDs[i] = id
	}

	anchorVals, err := gridValues(t.mon.store, anchorID, start, rows, step)
	if err != nil {
		return nil, err
	}

	results := make([]correlateResult, len(candIDs))
	for i, id := range candIDs {
		vals, err := gridValues(t.mon.store, id, start, rows, step)
		if err != nil {
			return nil, err
		}
		r, lag, n := bestLagCorrelation(anchorVals, vals, q.minLag, q.maxLag)
		res := correlateResult{Measurement: id.String(), Correlation: r, Lag: lag, Samples: n}
		if m, ok := means[id]; ok {
			mv := m
			res.Fitness = &mv
		}
		if s, ok := admission[manager.MakePair(anchorID, id)]; ok {
			sv := s
			res.Admission = &sv
		}
		results[i] = res
	}
	// Rank by |correlation|, strongest first; undefined (zero-sample)
	// results sink to the bottom; ties break by name for determinism.
	sort.SliceStable(results, func(i, j int) bool {
		if (results[i].Samples == 0) != (results[j].Samples == 0) {
			return results[j].Samples == 0
		}
		ai, aj := math.Abs(results[i].Correlation), math.Abs(results[j].Correlation)
		if ai != aj {
			return ai > aj
		}
		return results[i].Measurement < results[j].Measurement
	})

	return &correlateResponse{
		Anchor: q.anchor,
		Window: correlateResponseWindow{
			Start: start.UTC().Format(time.RFC3339),
			End:   end.UTC().Format(time.RFC3339),
			Rows:  rows,
		},
		Lags:    correlateLags{Min: q.minLag, Max: q.maxLag},
		Results: results,
		Engine: correlateEngine{
			Tenant:       t.name,
			Steps:        fleet.Steps(),
			Pairs:        len(fleet.Pairs()),
			Measurements: len(fleet.IDs()),
			StepSeconds:  step.Seconds(),
			Discovery:    disc,
		},
	}, nil
}

// gridValues reads one measurement's window as a dense grid array of
// length rows starting at start, NaN where the store has no sample.
func gridValues(store *Store, id MeasurementID, start time.Time, rows int, step time.Duration) ([]float64, error) {
	end := start.Add(time.Duration(rows) * step)
	s, err := store.Query(id, start, end)
	if err != nil {
		if errors.Is(err, tsdb.ErrUnknownMeasurement) {
			return nil, &httpError{http.StatusNotFound, "unknown_measurement", "unknown measurement " + id.String()}
		}
		return nil, err
	}
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for i := 0; i < s.Len(); i++ {
		idx := int(s.TimeAt(i).Sub(start) / step)
		if idx >= 0 && idx < rows {
			vals[idx] = s.Values[i]
		}
	}
	return vals, nil
}

// bestLagCorrelation scans lags in the inclusive range and returns the
// Pearson coefficient at the best lag, the lag, and the overlap count.
// The candidate y is compared against the anchor x over pairs
// (x[i], y[i+lag]), so a positive lag means y trails x. Lags are scanned
// outward from zero (0, +1, -1, +2, -2, ...) and a lag wins only with a
// strictly larger |r|, so the smallest-magnitude lag is detected on ties
// — deterministically. Lags with fewer than minCorrelateSamples
// NaN-free overlapping pairs, or with zero variance on either side, are
// skipped; (0, 0, 0) is returned when every lag is skipped.
func bestLagCorrelation(x, y []float64, minLag, maxLag int) (r float64, lag int, samples int) {
	span := maxLag
	if -minLag > span {
		span = -minLag
	}
	found := false
	for d := 0; d <= span; d++ {
		for _, l := range []int{d, -d} {
			if l < minLag || l > maxLag || (l == 0 && d != 0) {
				continue
			}
			c, n, ok := laggedPearson(x, y, l)
			if !ok {
				continue
			}
			if !found || math.Abs(c) > math.Abs(r) {
				r, lag, samples = c, l, n
				found = true
			}
			if d == 0 {
				break // +0 and -0 are the same lag
			}
		}
	}
	if !found {
		return 0, 0, 0
	}
	return r, lag, samples
}

// laggedPearson computes the Pearson coefficient over pairs
// (x[i], y[i+lag]) where both sides are NaN-free, reporting the overlap
// count and whether the coefficient is defined (enough overlap, nonzero
// variance on both sides).
func laggedPearson(x, y []float64, lag int) (r float64, n int, ok bool) {
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		j := i + lag
		if j < 0 || j >= len(y) {
			continue
		}
		a, b := x[i], y[j]
		if math.IsNaN(a) || math.IsNaN(b) {
			continue
		}
		n++
		sx += a
		sy += b
		sxx += a * a
		syy += b * b
		sxy += a * b
	}
	if n < minCorrelateSamples {
		return 0, n, false
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0, n, false
	}
	return cov / math.Sqrt(vx*vy), n, true
}

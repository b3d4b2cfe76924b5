package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart anchors the uptime gauge; set when the first ops server (or
// mux) is built so replayed tests stay deterministic until then.
var (
	processOnce  sync.Once
	processStart time.Time
)

// registerProcessMetrics adds process-level gauges to the default registry.
func registerProcessMetrics() {
	processOnce.Do(func() {
		processStart = time.Now()
		defaultRegistry.GaugeFunc("mcorr_process_uptime_seconds",
			"Seconds since the ops surface was initialized.",
			func() float64 { return time.Since(processStart).Seconds() })
		defaultRegistry.GaugeFunc("mcorr_process_goroutines",
			"Live goroutines in the process.",
			func() float64 { return float64(runtime.NumGoroutine()) })
	})
}

// opsHandlers is the process-wide table of dynamically registered /api/
// handlers. The ops mux dispatches /api/ requests through it at request
// time, so handlers registered after a server boots (the monitor wires
// its diagnosis API in only once the fleet exists) are still reachable.
var (
	opsHandlersMu sync.RWMutex
	opsHandlers   []opsHandler
)

type opsHandler struct {
	pattern string
	h       http.Handler
}

// RegisterOpsHandler mounts a handler on every ops server (current and
// future) under the given pattern, which must start with "/api/". A
// request dispatches to the registered pattern that is the longest
// prefix of its path (a pattern ending in "/" matches a subtree; other
// patterns match exactly). Re-registering a pattern replaces the
// previous handler, so a restarted pipeline can rebind its API.
func RegisterOpsHandler(pattern string, h http.Handler) {
	if !strings.HasPrefix(pattern, "/api/") {
		panic("obs: RegisterOpsHandler pattern must start with /api/")
	}
	opsHandlersMu.Lock()
	defer opsHandlersMu.Unlock()
	for i := range opsHandlers {
		if opsHandlers[i].pattern == pattern {
			opsHandlers[i].h = h
			return
		}
	}
	opsHandlers = append(opsHandlers, opsHandler{pattern: pattern, h: h})
}

// opsRoutesOnce guards the route-table registration of the fixed ops
// endpoints; NewOpsMux calls it so every ops server's static surface is
// visible to Routes() (and therefore to the API.md coverage gate).
var opsRoutesOnce sync.Once

func registerOpsRoutes() {
	opsRoutesOnce.Do(func() {
		RegisterRoute("GET", "/")
		RegisterRoute("GET", "/metrics")
		RegisterRoute("GET", "/vars")
		RegisterRoute("GET", "/healthz")
		RegisterRoute("GET", "/statusz")
		RegisterRoute("GET", "/debug/spans")
		RegisterRoute("GET", "/debug/pprof/")
	})
}

// lookupOpsHandler finds the longest registered pattern matching path.
func lookupOpsHandler(path string) http.Handler {
	opsHandlersMu.RLock()
	defer opsHandlersMu.RUnlock()
	var best http.Handler
	bestLen := -1
	for _, oh := range opsHandlers {
		match := oh.pattern == path ||
			(strings.HasSuffix(oh.pattern, "/") && strings.HasPrefix(path, oh.pattern))
		if match && len(oh.pattern) > bestLen {
			best, bestLen = oh.h, len(oh.pattern)
		}
	}
	return best
}

// NewOpsMux builds the ops HTTP handler for a registry and tracer:
//
//	/metrics       Prometheus text exposition format
//	/vars          the same registry as expvar-style JSON
//	/healthz       liveness probe ("ok")
//	/statusz       human-readable status: process info, fabric summary,
//	               recent spans with per-phase timings
//	/debug/spans   the span ring as JSON (?n= caps the span count)
//	/api/          handlers mounted with RegisterOpsHandler (e.g. the
//	               diagnosis API), resolved at request time
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Nil registry/tracer default to the process-wide ones.
func NewOpsMux(reg *Registry, tracer *Tracer) *http.ServeMux {
	if reg == nil {
		reg = defaultRegistry
	}
	if tracer == nil {
		tracer = defaultTracer
	}
	if reg == defaultRegistry {
		registerProcessMetrics()
	}
	registerOpsRoutes()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeStatusz(w, reg, tracer)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		writeSpansJSON(w, r, tracer)
	})
	mux.HandleFunc("/api/", func(w http.ResponseWriter, r *http.Request) {
		if h := lookupOpsHandler(r.URL.Path); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		WriteJSONError(w, http.StatusNotFound, "not_found", "no handler registered for "+r.URL.Path)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "mcorr ops server — endpoints: /metrics /vars /healthz /statusz /debug/spans /api/v1/... /debug/pprof/")
	})
	return mux
}

// spanJSON is one completed span in the /debug/spans payload.
type spanJSON struct {
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationNS int64       `json:"duration_ns"`
	Phases     []phaseJSON `json:"phases,omitempty"`
}

// phaseJSON is one named phase inside a span.
type phaseJSON struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// writeSpansJSON renders the span ring as JSON, newest first. ?n= caps
// the span count (default 64, 0 for the whole ring).
func writeSpansJSON(w http.ResponseWriter, r *http.Request, tracer *Tracer) {
	n := 64
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 0 {
			WriteJSONError(w, http.StatusBadRequest, "bad_request", "n must be a non-negative integer")
			return
		}
		n = v
	}
	recent := tracer.Recent(n)
	spans := make([]spanJSON, len(recent))
	for i, rec := range recent {
		s := spanJSON{Name: rec.Name, Start: rec.Start, DurationNS: rec.Duration.Nanoseconds()}
		for _, ph := range rec.Phases {
			s.Phases = append(s.Phases, phaseJSON{Name: ph.Name, DurationNS: ph.Duration.Nanoseconds()})
		}
		spans[i] = s
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"total": tracer.Total(), "spans": spans})
}

// fabricRows lists the registry metrics the /statusz fabric summary
// shows. Each subsystem registers its metric only when linked in and
// used, so absent rows are simply skipped.
var fabricRows = []struct{ label, metric string }{
	{"shard workers", "mcorr_shardnet_workers"},
	{"dirty pairs (last row)", "mcorr_manager_dirty_pairs"},
	{"checkpoint epoch", "mcorr_checkpoint_epoch"},
	{"open incidents", "mcorr_incident_open"},
}

// writeStatusz renders the human-readable status page.
func writeStatusz(w http.ResponseWriter, reg *Registry, tracer *Tracer) {
	fmt.Fprintf(w, "mcorr status\n============\n")
	if !processStart.IsZero() {
		fmt.Fprintf(w, "uptime:      %v\n", time.Since(processStart).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "go:          %s\n", runtime.Version())
	fmt.Fprintf(w, "goroutines:  %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "gomaxprocs:  %d\n", runtime.GOMAXPROCS(0))

	// Fabric summary: the handful of gauges that say what the scoring
	// fabric is doing right now, pulled straight from the registry.
	fmt.Fprintf(w, "\nfabric\n------\n")
	shown := 0
	for _, row := range fabricRows {
		v, ok := reg.Value(row.metric)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-24s %s\n", row.label+":", formatFloat(v))
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(w, "(no fabric metrics registered)")
	}

	fmt.Fprintf(w, "\nrecent spans (%d total recorded)\n--------------------------------\n", tracer.Total())
	recent := tracer.Recent(32)
	if len(recent) == 0 {
		fmt.Fprintln(w, "(none)")
	}
	for _, rec := range recent {
		fmt.Fprintf(w, "%s  %-20s %10v", rec.Start.Format("15:04:05.000"), rec.Name, rec.Duration.Round(time.Microsecond))
		for _, ph := range rec.Phases {
			fmt.Fprintf(w, "  %s=%v", ph.Name, ph.Duration.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}

	// Aggregate per-span-name phase means: the pipeline-shaped summary
	// (ingest → score → aggregate → alarm) operators actually read.
	type agg struct {
		n      int
		total  time.Duration
		phases map[string]time.Duration
	}
	byName := map[string]*agg{}
	for _, rec := range tracer.Recent(0) {
		a := byName[rec.Name]
		if a == nil {
			a = &agg{phases: map[string]time.Duration{}}
			byName[rec.Name] = a
		}
		a.n++
		a.total += rec.Duration
		for _, ph := range rec.Phases {
			a.phases[ph.Name] += ph.Duration
		}
	}
	if len(byName) > 0 {
		fmt.Fprintf(w, "\nspan means over the ring\n------------------------\n")
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a := byName[n]
			fmt.Fprintf(w, "%-20s n=%-4d mean=%v", n, a.n, (a.total / time.Duration(a.n)).Round(time.Microsecond))
			phNames := make([]string, 0, len(a.phases))
			for p := range a.phases {
				phNames = append(phNames, p)
			}
			sort.Strings(phNames)
			for _, p := range phNames {
				fmt.Fprintf(w, "  %s=%v", p, (a.phases[p] / time.Duration(a.n)).Round(time.Microsecond))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nmetrics: see /metrics (Prometheus) and /vars (JSON)\n")
}

// OpsServer is a running ops HTTP server. Stop it with Close.
type OpsServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeOps binds addr (e.g. ":6060" or "127.0.0.1:0") and serves the ops
// endpoints for the process-wide registry and tracer in the background.
func ServeOps(addr string) (*OpsServer, error) {
	return ServeOpsFor(addr, nil, nil)
}

// ServeOpsFor is ServeOps with explicit registry and tracer (nil for the
// process-wide defaults).
func ServeOpsFor(addr string, reg *Registry, tracer *Tracer) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: ops listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewOpsMux(reg, tracer), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &OpsServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound address.
func (o *OpsServer) Addr() net.Addr { return o.ln.Addr() }

// Close shuts the server down immediately.
func (o *OpsServer) Close() error { return o.srv.Close() }

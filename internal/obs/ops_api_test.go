package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugSpansJSON(t *testing.T) {
	tr := NewTracer(8)
	for _, name := range []string{"first", "second"} {
		sp := tr.StartSpan(name)
		sp.Phase("work")
		sp.End()
	}
	srv := httptest.NewServer(NewOpsMux(NewRegistry(), tr))
	defer srv.Close()

	var payload struct {
		Total uint64 `json:"total"`
		Spans []struct {
			Name   string `json:"name"`
			Phases []struct {
				Name string `json:"name"`
			} `json:"phases"`
		} `json:"spans"`
	}
	code, body := get(t, srv, "/debug/spans")
	if code != 200 {
		t.Fatalf("/debug/spans = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if payload.Total != 2 || len(payload.Spans) != 2 {
		t.Fatalf("payload = %+v, want 2 spans", payload)
	}
	// Newest first.
	if payload.Spans[0].Name != "second" || payload.Spans[1].Name != "first" {
		t.Errorf("span order = %s, %s; want newest first", payload.Spans[0].Name, payload.Spans[1].Name)
	}
	if len(payload.Spans[0].Phases) != 1 || payload.Spans[0].Phases[0].Name != "work" {
		t.Errorf("phases = %+v", payload.Spans[0].Phases)
	}

	code, body = get(t, srv, "/debug/spans?n=1")
	if code != 200 {
		t.Fatalf("?n=1 = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Spans) != 1 || payload.Spans[0].Name != "second" {
		t.Errorf("?n=1 spans = %+v", payload.Spans)
	}

	if code, _ = get(t, srv, "/debug/spans?n=-3"); code != 400 {
		t.Errorf("negative n = %d, want 400", code)
	}
	if code, _ = get(t, srv, "/debug/spans?n=zebra"); code != 400 {
		t.Errorf("non-numeric n = %d, want 400", code)
	}
}

func TestStatuszFabricBlock(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(NewOpsMux(reg, NewTracer(4)))
	defer srv.Close()

	// With none of the fabric gauges registered the block says so.
	code, body := get(t, srv, "/statusz")
	if code != 200 || !strings.Contains(body, "(no fabric metrics registered)") {
		t.Fatalf("/statusz without fabric gauges = %d:\n%s", code, body)
	}

	reg.Gauge("mcorr_shardnet_workers", "Networked shard workers.").Set(4)
	reg.Gauge("mcorr_manager_dirty_pairs", "Dirty pairs last row.").Set(17)
	reg.Gauge("mcorr_checkpoint_epoch", "Committed checkpoint epoch.").Set(9)
	reg.Gauge("mcorr_incident_open", "Open incidents.").Set(1)

	_, body = get(t, srv, "/statusz")
	for _, want := range []string{
		"fabric", "shard workers:", "dirty pairs (last row):", "checkpoint epoch:", "open incidents:",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "4") || !strings.Contains(body, "17") || !strings.Contains(body, "9") {
		t.Errorf("/statusz missing fabric gauge values:\n%s", body)
	}
	if strings.Contains(body, "(no fabric metrics registered)") {
		t.Error("/statusz still shows the empty-fabric placeholder")
	}
}

func TestRegisterOpsHandlerDispatch(t *testing.T) {
	echo := func(tag string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(tag + " " + r.URL.Path))
		})
	}
	RegisterOpsHandler("/api/opstest/", echo("subtree"))
	RegisterOpsHandler("/api/opstest/exact", echo("exact"))

	srv := httptest.NewServer(NewOpsMux(NewRegistry(), NewTracer(4)))
	defer srv.Close()

	code, body := get(t, srv, "/api/opstest/anything/nested")
	if code != 200 || !strings.HasPrefix(body, "subtree ") {
		t.Errorf("subtree dispatch = %d %q", code, body)
	}
	// Longest matching pattern wins.
	code, body = get(t, srv, "/api/opstest/exact")
	if code != 200 || !strings.HasPrefix(body, "exact ") {
		t.Errorf("exact dispatch = %d %q", code, body)
	}
	// Re-registering replaces the handler.
	RegisterOpsHandler("/api/opstest/exact", echo("rebound"))
	code, body = get(t, srv, "/api/opstest/exact")
	if code != 200 || !strings.HasPrefix(body, "rebound ") {
		t.Errorf("rebound dispatch = %d %q", code, body)
	}
	// Unregistered /api/ paths answer a JSON 404.
	code, body = get(t, srv, "/api/opstest-nothing-here")
	if code != 404 || !strings.Contains(body, "no handler registered") {
		t.Errorf("unregistered = %d %q", code, body)
	}

	defer func() {
		if recover() == nil {
			t.Error("RegisterOpsHandler accepted a pattern outside /api/")
		}
	}()
	RegisterOpsHandler("/metrics", echo("nope"))
}

func TestRegistryValue(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("val_counter", "c").Add(7)
	reg.Gauge("val_gauge", "g").Set(2.5)
	reg.GaugeFunc("val_fn", "f", func() float64 { return 42 })
	reg.CounterVec("val_labeled", "l", "k").With("x").Inc()
	reg.Histogram("val_hist", "h", []float64{1, 2})

	if v, ok := reg.Value("val_counter"); !ok || v != 7 {
		t.Errorf("counter = %v %v", v, ok)
	}
	if v, ok := reg.Value("val_gauge"); !ok || v != 2.5 {
		t.Errorf("gauge = %v %v", v, ok)
	}
	if v, ok := reg.Value("val_fn"); !ok || v != 42 {
		t.Errorf("gaugeFn = %v %v", v, ok)
	}
	for _, name := range []string{"val_labeled", "val_hist", "val_unknown"} {
		if _, ok := reg.Value(name); ok {
			t.Errorf("Value(%q) reported ok; labeled/histogram/unknown must not", name)
		}
	}
}

func TestRegisterBuildInfoReplacesSeries(t *testing.T) {
	RegisterBuildInfo("", 4)
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `mcorr_build_info{version="dev",`) || !strings.Contains(out, `shards="4"`) {
		t.Fatalf("build info series missing after first register:\n%s", grepLines(out, "mcorr_build_info"))
	}

	RegisterBuildInfo("v9.9", 8)
	sb.Reset()
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if strings.Contains(out, `version="dev"`) {
		t.Errorf("stale build info series survived re-register:\n%s", grepLines(out, "mcorr_build_info"))
	}
	if !strings.Contains(out, `mcorr_build_info{version="v9.9",`) || !strings.Contains(out, `shards="8"`) {
		t.Errorf("replacement series missing:\n%s", grepLines(out, "mcorr_build_info"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

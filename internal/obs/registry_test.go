package obs

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden locks the text exposition format: HELP/TYPE
// comments, sorted families, label rendering, histogram buckets with
// cumulative counts, sum and count lines.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	c.Add(3)
	g := r.Gauge("test_queue_depth", "Items queued.")
	g.Set(2.5)
	cv := r.CounterVec("test_errors_total", "Errors by kind.", "kind")
	cv.With("decode").Add(2)
	cv.With("io").Inc()
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_errors_total Errors by kind.
# TYPE test_errors_total counter
test_errors_total{kind="decode"} 2
test_errors_total{kind="io"} 1
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.55
test_latency_seconds_count 3
# HELP test_queue_depth Items queued.
# TYPE test_queue_depth gauge
test_queue_depth 2.5
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_weird_total", "Weird labels.", "path")
	cv.With("a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_weird_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label line %q not found in:\n%s", want, b.String())
	}
	// Help strings escape backslash and newline.
	r2 := NewRegistry()
	r2.Counter("test_h", "line1\nline2 \\ tail")
	b.Reset()
	if err := r2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# HELP test_h line1\nline2 \\ tail`) {
		t.Errorf("help not escaped: %s", b.String())
	}
}

func TestHistogramBucketMath(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		h.Observe(v)
	}
	buckets, count, sum := h.snapshot()
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	if math.Abs(sum-16) > 1e-12 {
		t.Fatalf("sum = %v, want 16", sum)
	}
	// Upper bounds are inclusive (Prometheus le semantics).
	wantBuckets := []uint64{2, 2, 1, 1}
	for i, w := range wantBuckets {
		if buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], w)
		}
	}
	// Quantiles interpolate within a bucket and clamp at the top bound.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("median %v outside (1, 2]", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Errorf("q1 = %v, want clamp to 4", q)
	}
	if !math.IsNaN(newHistogram([]float64{1}).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

// TestTallyPublishesWhatObserveCounts: a tally published twice, with an
// empty publish between, leaves the bucket counts and count Observe would,
// the sum equal to within rounding, and is empty after each publish.
func TestTallyPublishesWhatObserveCounts(t *testing.T) {
	bounds := []float64{0.25, 0.5, 1}
	direct, tallied := newHistogram(bounds), newHistogram(bounds)
	tally := tallied.NewTally()
	for _, batch := range [][]float64{{0.1, 0.25, 0.3, 1, 1.5, 0.3}, {}, {0.9, 0.5, 0, 7}} {
		for _, v := range batch {
			direct.Observe(v)
			tally.Observe(v)
		}
		tally.Publish()
		if tally.count != 0 || tally.sum != 0 || slices.ContainsFunc(tally.counts, func(c uint64) bool { return c != 0 }) {
			t.Fatalf("tally not empty after Publish: %+v", tally)
		}
	}
	wb, wc, ws := direct.snapshot()
	gb, gc, gs := tallied.snapshot()
	if !slices.Equal(gb, wb) || gc != wc || math.Abs(gs-ws) > 1e-12 {
		t.Fatalf("published buckets %v count %d sum %v; observed one at a time %v, %d, %v", gb, gc, gs, wb, wc, ws)
	}
}

func TestHistogramQuantileExact(t *testing.T) {
	// 100 uniform observations over (0, 10]; with 10 linear buckets the
	// interpolated quantiles should land close to the true ones.
	h := newHistogram(LinearBuckets(1, 1, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 5, 0.2},
		{0.9, 9, 0.2},
		{0.1, 1, 0.2},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_once_total", "help")
	b := r.Counter("test_once_total", "help")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration should panic")
		}
	}()
	r.Gauge("test_once_total", "now a gauge")
}

func TestGaugeFuncAndVecDelete(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_fn", "computed", func() float64 { return 42 })
	gv := r.GaugeVec("test_agents", "per agent", "agent")
	gv.With("a1").Set(1)
	gv.With("a2").Set(2)
	gv.Delete("a1")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "test_fn 42") {
		t.Errorf("gauge func not rendered: %s", out)
	}
	if strings.Contains(out, `agent="a1"`) || !strings.Contains(out, `agent="a2"`) {
		t.Errorf("vec delete not honored: %s", out)
	}
}

func TestCounterAndHistogramVecDelete(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_ops_total", "per agent ops", "agent")
	cv.With("a1").Inc()
	cv.With("a2").Inc()
	cv.Delete("a1")
	cv.Delete("never-existed") // no-op, must not panic
	hv := r.HistogramVec("test_lat_seconds", "per agent latency", []float64{1}, "agent")
	hv.With("a1").Observe(0.5)
	hv.With("a2").Observe(0.5)
	hv.Delete("a1")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `agent="a1"`) || !strings.Contains(out, `agent="a2"`) {
		t.Errorf("counter/histogram vec delete not honored: %s", out)
	}
	// A deleted child re-created by With starts from zero.
	if v := cv.With("a1").Value(); v != 0 {
		t.Errorf("recreated counter = %d, want 0", v)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_n_total", "n").Add(7)
	r.HistogramVec("test_lat_seconds", "lat", []float64{1}, "op").With("read").Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if out["test_n_total"].(float64) != 7 {
		t.Errorf("counter value = %v", out["test_n_total"])
	}
	arr := out["test_lat_seconds"].([]any)
	child := arr[0].(map[string]any)
	if child["labels"].(map[string]any)["op"] != "read" {
		t.Errorf("labels = %v", child["labels"])
	}
	if child["value"].(map[string]any)["count"].(float64) != 1 {
		t.Errorf("histogram count = %v", child["value"])
	}
}

// TestConcurrentUpdates exercises counters, gauges and histograms from
// many goroutines; run under -race this is the data-race gate for the
// atomic metric core.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "c")
	g := r.Gauge("test_conc_gauge", "g")
	h := r.Histogram("test_conc_seconds", "h", TimeBuckets())
	cv := r.CounterVec("test_conc_vec_total", "cv", "worker")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			child := cv.With(name)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) * 1e-5)
				child.Inc()
				// Interleave renders to race the readers too.
				if i%1000 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if n := cv.With(string(rune('a' + w))).Value(); n != perWorker {
			t.Errorf("vec child %d = %d, want %d", w, n, perWorker)
		}
	}
}

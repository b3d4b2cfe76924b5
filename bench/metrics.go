package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef names one number the benchmark reports. The tables below are
// the single list of metrics: BENCHMARK.json repeats name, unit, direction
// and bound (bench_test.go holds the two together); README.md defines each
// and says which end-to-end metric a layer metric should move.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening that counts as a regression; only
	// end-to-end metrics carry one.
	bound float64
}

// endToEnd are the metrics a user of the pipeline sees on every workload.
// The bounds are the widest BENCHMARK.json may carry: ten runs of the same
// code spread by 4 to 7% in rate and latency (after the host factor; 10 to
// 30% before it when the host is busy), by 9 to 12% in peak memory and by
// more in set-up time, and a spread has to stay inside a third of its
// bound (README.md, Noise and Repeatability).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "samples_per_s", unit: "samples/s", better: "higher", bound: 0.25},
	{name: "sample_to_alarm_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// mixedEndToEnd are end-to-end in kind but exist only on mixed-rw: the
// other workloads make no queries and force no checkpoint, and shardnet48
// has no tenant to do either on. The driver wants every end_to_end metric
// from every workload and never 0, so BENCHMARK.json lists these three
// first under per_layer, where it takes no bound; --repeat holds them to
// the bounds here, on mixed-rw.
var mixedEndToEnd = []metricDef{
	{name: "correlate_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "checkpoint_s", unit: "s", better: "lower", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
}

// gated are the metrics --repeat holds workload w to.
func gated(w workload) []metricDef {
	if w.mixed {
		return slices.Concat(endToEnd, mixedEndToEnd)
	}
	return endToEnd
}

// perLayer is BENCHMARK.json's per_layer list: mixedEndToEnd, then the
// single-layer metrics, module name first. A workload that bypasses a
// layer reports 0 for it.
var perLayer = slices.Concat(mixedEndToEnd, layers)

var layers = []metricDef{
	{name: "collector.encode_us_per_frame", unit: "us", better: "lower"},
	{name: "collector.decode_us_per_frame", unit: "us", better: "lower"},
	{name: "collector.send_rtt_us_per_frame", unit: "us", better: "lower"},
	{name: "collector.null_sink_rtt_us_per_frame", unit: "us", better: "lower"},
	{name: "collector.small_frame_rtt_us", unit: "us", better: "lower"},
	{name: "collector.wire_bytes_per_sample", unit: "bytes", better: "lower"},
	{name: "collector.frames", unit: "count", better: "higher"},
	{name: "collector.shed_frames", unit: "count", better: "lower"},
	{name: "collector.throttled_frames", unit: "count", better: "lower"},

	{name: "wal.append_us_per_frame", unit: "us", better: "lower"},
	{name: "wal.bytes_per_sample", unit: "bytes", better: "lower"},
	{name: "wal.fsyncs", unit: "count", better: "lower"},

	{name: "tsdb.append_us_per_row", unit: "us", better: "lower"},
	{name: "tsdb.lasttime_scan_us_per_row", unit: "us", better: "lower"},
	{name: "tsdb.queryall_us_per_row", unit: "us", better: "lower"},
	{name: "tsdb.query_window_us", unit: "us", better: "lower"},
	{name: "tsdb.resident_samples", unit: "count", better: "lower"},

	{name: "mcorr.train_s", unit: "s", better: "lower"},
	{name: "mcorr.initial_checkpoint_s", unit: "s", better: "lower"},
	{name: "mcorr.warm_rows", unit: "count", better: "lower"},
	{name: "mcorr.sink_us_per_row", unit: "us", better: "lower"},
	{name: "mcorr.row_assembly_us_per_row", unit: "us", better: "lower"},
	{name: "mcorr.correlate_handler_us_p50", unit: "us", better: "lower"},
	{name: "mcorr.checkpoint_mb", unit: "MB", better: "lower"},
	{name: "mcorr.recover_replayed_rows", unit: "count", better: "higher"},

	{name: "manager.step_us_per_row", unit: "us", better: "lower"},
	{name: "manager.score_us_per_row", unit: "us", better: "lower"},
	{name: "manager.aggregate_us_per_row", unit: "us", better: "lower"},
	{name: "manager.rescored_pairs_per_row", unit: "count", better: "lower"},
	{name: "manager.carried_pairs_per_row", unit: "count", better: "higher"},
	{name: "manager.allocs_per_row", unit: "count", better: "lower"},
	{name: "manager.alloc_bytes_per_row", unit: "bytes", better: "lower"},
	{name: "core.step_ns_per_rescored_pair", unit: "ns", better: "lower"},
	{name: "core.model_mb_per_pair", unit: "MB", better: "lower"},

	{name: "shardnet.step_us_per_row", unit: "us", better: "lower"},
	{name: "shardnet.step_over_local_ratio", unit: "ratio", better: "lower"},
	{name: "shardnet.allocs_per_row", unit: "count", better: "lower"},
	{name: "shardnet.alloc_bytes_per_row", unit: "bytes", better: "lower"},
	{name: "shardnet.worker_latency_skew", unit: "ratio", better: "lower"},
	{name: "shardnet.state_transfer_s", unit: "s", better: "lower"},

	{name: "discover.step_us_per_row", unit: "us", better: "lower"},
	{name: "discover.admitted_pairs", unit: "count", better: "higher"},
	{name: "discover.churn_pairs", unit: "count", better: "lower"},

	{name: "diagnose.observe_us_per_row", unit: "us", better: "lower"},
	{name: "diagnose.incidents_opened", unit: "count", better: "higher"},
	{name: "alarm.raised", unit: "count", better: "higher"},
	{name: "alarm.fault_detected", unit: "count", better: "higher"},

	{name: "run.raw_samples_per_s", unit: "samples/s", better: "higher"},
	{name: "run.raw_sample_to_alarm_p50_ms", unit: "ms", better: "lower"},
	{name: "run.yardstick_ms", unit: "ms", better: "lower"},
	{name: "run.sample_to_alarm_p99_ms", unit: "ms", better: "lower"},
	{name: "run.sample_to_alarm_p999_ms", unit: "ms", better: "lower"},
	{name: "run.segment_spread", unit: "ratio", better: "lower"},
	{name: "run.cpu_s_per_msample", unit: "s", better: "lower"},
	{name: "run.gc_cycles", unit: "count", better: "lower"},
	{name: "run.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "run.query_late_ms_p99", unit: "ms", better: "lower"},
	{name: "run.trace_coverage_share", unit: "ratio", better: "higher"},
	{name: "run.trace_overhead_share", unit: "ratio", better: "lower"},
}

// metrics collects one run's values by name.
type metrics map[string]float64

// quantile returns the q-quantile of v (nearest rank on a sorted copy).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle of v, the mean of the two middle values when
// len(v) is even.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

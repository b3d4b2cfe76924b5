// Package obs is the repo's unified observability layer: a dependency-free
// metrics core (atomic counters, gauges, bucketed histograms with quantile
// summaries, labeled families), a Registry that renders both Prometheus
// text exposition format and expvar-style JSON, a lightweight span/trace
// facility with a fixed ring of recent spans, a structured key=value
// logger whose volume is itself a metric, and an embeddable HTTP ops
// server exposing /metrics, /vars, /healthz, /statusz and net/http/pprof.
//
// The paper's thesis is "monitor the monitors": fitness scores Q^{a,b},
// Q^a, Q tell operators which *measurement* is sick. This package applies
// the same discipline to the monitoring pipeline itself — every hot layer
// (manager fleet, networked shard fabric, collector server, tsdb) publishes its
// health here.
//
// # Naming
//
// All metrics follow the scheme mcorr_<pkg>_<name>, with Prometheus
// conventions for units and suffixes: `_total` for counters,
// `_seconds` for durations, plain names for gauges. Label cardinality must
// stay bounded by configuration (severity, scope, level, frame type, shard
// count) or by fleet size (agent name); never derive a label from sample
// values. The full reference for every metric, with units and cardinality,
// lives in OPERATIONS.md at the repo root; Registry.MetricNames lets a
// test cross-check that document against the code.
//
// # Hot-path cost
//
// Counter.Inc/Add and Histogram.Observe are single atomic operations (plus
// a short linear bucket scan) — allocation-free and well under 50ns — so
// they are safe inside the manager's per-sample scoring path. Labeled
// lookups (Vec.With) take a lock and build a key; hot paths must resolve
// their children once and cache them.
package obs

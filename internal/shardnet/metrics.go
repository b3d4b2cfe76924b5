package shardnet

import "mcorr/internal/obs"

// Process-global networked-fabric metrics (mcorr_shardnet_*). The
// coordinator side labels per-shard children by shard index; cardinality
// is bounded by the worker count. Worker processes publish the
// mcorr_shardnet_worker_* families on their own ops surface.
var (
	obsStepSeconds = obs.Default().Histogram("mcorr_shardnet_step_seconds",
		"Latency of one networked Step: fan-out, remote scoring on every worker, and central merge.",
		obs.TimeBuckets())
	obsRows = obs.Default().Counter("mcorr_shardnet_rows_total",
		"Rows fanned out to networked shard workers.")
	obsWorkerCount = obs.Default().Gauge("mcorr_shardnet_workers",
		"Networked shard workers in the fabric.")
	obsConnected = obs.Default().Gauge("mcorr_shardnet_workers_connected",
		"Workers with a live control connection.")
	obsReconnects = obs.Default().Counter("mcorr_shardnet_reconnects_total",
		"Control-connection re-establishments after a worker or link failure.")
	obsReplayedRows = obs.Default().Counter("mcorr_shardnet_replayed_rows_total",
		"Rows re-sent from the coordinator's replay ring during recovery.")
	obsDupOutcomes = obs.Default().Counter("mcorr_shardnet_duplicate_outcomes_total",
		"Outcome frames drained and dropped during a replay: answers to rows merged before the connection was lost.")
	obsStaleOutcomes = obs.Default().Counter("mcorr_shardnet_stale_outcomes_total",
		"Outcome frames refused for carrying another pair count than the worker's shard.")
	obsShardLatency = obs.Default().GaugeVec("mcorr_shardnet_shard_latency_seconds",
		"Exponentially weighted round-trip per shard: start of the row's fan-out to the shard's last outcome frame (label: shard index).",
		"shard")

	obsWorkerRows = obs.Default().Counter("mcorr_shardnet_worker_rows_total",
		"Rows scored by this worker process.")
	obsWorkerCheckpoints = obs.Default().Counter("mcorr_shardnet_worker_checkpoints_total",
		"Checkpoints persisted by this worker process.")
	obsWorkerSessions = obs.Default().Counter("mcorr_shardnet_worker_sessions_total",
		"Control sessions accepted by this worker process.")
)

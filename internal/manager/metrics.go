package manager

import "mcorr/internal/obs"

// Process-global manager metrics (mcorr_manager_*). Counters and histogram
// observations on the Step path are single atomic ops; the labeled fitness
// children are resolved once here so the hot loop never touches the vec.
var (
	obsStepSeconds = obs.Default().Histogram("mcorr_manager_step_seconds",
		"Latency of Manager.Step: scoring one synchronized row across every link.",
		obs.TimeBuckets())
	obsTrainSeconds = obs.Default().Histogram("mcorr_manager_train_seconds",
		"Latency of training the full model fleet (Manager.New).",
		obs.ExpBuckets(1e-3, 4, 10))
	obsRows = obs.Default().Counter("mcorr_manager_rows_total",
		"Synchronized rows fed through Manager.Step.")
	obsPairsScored = obs.Default().Counter("mcorr_manager_pairs_scored_total",
		"Link scores Q^{a,b} produced across all steps.")
	obsGaps = obs.Default().Counter("mcorr_manager_gaps_total",
		"Link resets caused by missing or non-finite values (monitoring gaps).")
	obsGrowths = obs.Default().Counter("mcorr_manager_model_grow_total",
		"Adaptive grid growth events across the model fleet.")
	obsDirtyPairs = obs.Default().Gauge("mcorr_manager_dirty_pairs",
		"Pairs the incremental scheduler actually re-scored on the last row (the rest carried cached outcomes forward).")
	obsSkippedPairs = obs.Default().Counter("mcorr_manager_skipped_pairs_total",
		"Pair scorings skipped by the incremental scheduler because the cached steady outcome provably repeats.")
	obsModelBytes = obs.Default().Gauge("mcorr_manager_model_bytes",
		"Bytes a checkpoint writes for the transition-matrix rows the pair models store (8 × cells × stored rows: only rows a pair has observed a transition out of are stored; an upper bound on what they hold, as a row laid out before its pair's last grid growth holds fewer entries until its next write), summed over this process's managers as of each one's training, load or last Save.")
	obsCheckpointSeconds = obs.Default().Histogram("mcorr_checkpoint_seconds",
		"Latency of writing one durable checkpoint (snapshot encode + fsync + rename).",
		obs.TimeBuckets())
	obsCheckpointBytes = obs.Default().Gauge("mcorr_checkpoint_bytes",
		"Size of the last checkpoint file committed — the whole pipeline, models included, whatever the fleet shape.")
	obsCheckpointModels = obs.Default().Counter("mcorr_checkpoint_models_total",
		"Pair models streamed out by Manager.Save: checkpoints, shard state transfers and -save-models.")
	obsCheckpoints = obs.Default().Counter("mcorr_checkpoints_written_total",
		"Checkpoints durably written.")
	obsCheckpointEpoch = obs.Default().Gauge("mcorr_checkpoint_epoch",
		"Epoch of the last durable checkpoint: how many this data directory has committed (0 before the first).")

	obsHandoffs = obs.Default().CounterVec("mcorr_manager_pool_handoffs_total",
		"Helpers a posted scoring or training job called on, by how: to=spinning when a helper was already awake polling for work, to=parked when one had to be woken.",
		"to")
	obsHandoffSpinning = obsHandoffs.With("spinning")
	obsHandoffParked   = obsHandoffs.With("parked")

	obsFitness = obs.Default().HistogramVec("mcorr_manager_fitness",
		"Fitness scores by aggregation level: pair (Q^{a,b}), measurement (Q^a), system (Q).",
		obs.FitnessBuckets(), "level")
	obsFitnessPair = obsFitness.With("pair")
	obsFitnessMeas = obsFitness.With("measurement")
	obsFitnessSys  = obsFitness.With("system")
)

// RecordCheckpointEpoch publishes the epoch of the checkpoint that just
// committed on the mcorr_checkpoint_epoch gauge (the durable monitor
// calls this after the checkpoint's rename, and once at recovery with the
// restored epoch).
func RecordCheckpointEpoch(epoch uint64) { obsCheckpointEpoch.Set(float64(epoch)) }

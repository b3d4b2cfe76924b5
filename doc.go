// Package mcorr is a Go implementation of the transition-probability
// correlation model of Gao, Jiang, Chen and Han, "Modeling Probabilistic
// Measurement Correlations for Problem Determination in Large-Scale
// Distributed Systems" (ICDCS 2009), together with everything needed to
// run it as a monitoring system: a time-series store, a TCP collection
// pipeline, a model fleet with the paper's three-level fitness scoring,
// problem localization, alarming, baselines from the cited prior work, and
// a synthetic datacenter workload for experimentation.
//
// # The model in brief
//
// Two measurements observed together form a 2-D point per sampling
// interval. The history of such points defines a grid over the plane
// (density-adaptive per dimension) and a Markov transition matrix between
// grid cells, initialized with a spatial-closeness prior and updated by
// Bayesian multiplicative updates on every observed transition. A new
// observation is scored by the rank of its landing cell in the predicted
// transition distribution — the fitness score Q ∈ [0, 1]. Low fitness on
// one link implicates a pair; consistently low fitness on all links of one
// measurement implicates that measurement; aggregated per machine it
// localizes the faulty server.
//
// # Quick start
//
//	history := []mcorr.Point{ ... }           // (m1, m2) per 6-minute sample
//	model, err := mcorr.TrainModel(history, mcorr.ModelConfig{Adaptive: true})
//	if err != nil { ... }
//	for _, p := range online {
//		res := model.Step(p)
//		if res.Scored && res.Fitness < 0.3 {
//			// the pair's correlation broke at this sample
//		}
//	}
//
// For whole-system monitoring use NewManager (one model per measurement
// pair, Q^a and Q aggregation, localization) or Monitor (manager + store +
// sample ingestion glue).
//
// # Scaling out: the networked scoring fabric
//
// The pair graph grows quadratically in the measurement count. In one
// process a single Manager scores it on the process's scoring helpers,
// which span every core. NewShardNetFleet moves the models out of process instead: the
// graph is partitioned by rendezvous hashing across mcshard workers, and a
// coordinator merges every worker's per-pair outcomes through one central
// aggregation path, so the Q^a/Q trajectories stay bit-identical to one
// Manager's for any worker count. The Fleet interface abstracts over both
// shapes.
//
// # Durability
//
// A Monitor is one type in every mode. NewDurableMonitor/OpenDurableMonitor
// build it with a write-ahead log plus crash-atomic checkpoints under a data
// directory; NewMonitor builds the same pipeline in memory, where Checkpoint
// is a no-op and Close only releases the fleet. Every acked sample batch
// is logged before ingestion returns; recovery restores the
// last checkpoint, replays the WAL tail and re-scores the recovered rows,
// reproducing the pre-crash fitness trajectory exactly. The checkpoint is
// one file. See OPERATIONS.md for the runbook.
package mcorr

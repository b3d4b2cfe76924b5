// Package shard is the sharded scoring fabric: it partitions the
// l(l−1)/2 measurement-pair graph across N independent manager shards so
// the per-row scoring fan-out and the model memory scale horizontally —
// while the fitness trajectory stays bit-identical to a single unsharded
// manager.
//
// # Partitioning
//
// Assign maps a canonical pair key ("a/x|b/y") to a shard by rendezvous
// (highest-random-weight) hashing. The assignment is a pure function of
// (key, shard count): no ownership table is persisted, recovery and
// resharding simply recompute it. Growing the fleet from n to n+1 shards
// moves only the ≈1/(n+1) of pairs the new shard wins; no pair ever moves
// between two surviving shards.
//
// # Exactness
//
// Floating-point addition is not associative, so per-shard partial sums
// would change Q in the last ulp. A fleet therefore never sums on shards:
// each shard only *scores* its pairs (Scorer.ScoreInto), scattering
// per-pair Outcomes into one global slice laid out in the canonical sorted
// pair order, and a single central manager.Aggregator — the same code the
// unsharded Manager.Step uses — folds that slice in the identical order.
// Bit-identity for any shard count is structural, not incidental; the
// property tests in this package and the SIGKILL crash tests in
// internal/testkit enforce it at %.17g precision.
//
// # Layers
//
// That round is Fabric, written once for every sharded fleet (DESIGN.md
// §11): it scores through the Scorer seam, which *manager.Manager satisfies
// as it stands, and owns the pair order, scatter indices, outcome buffer
// and Aggregator. Coordinator embeds it and adds what needs the models in
// this process; internal/shardnet's Coordinator embeds it and adds what
// needs a wire. Each coordinator's mutex is the round lock, which the
// Fabric borrows for its accessors.
//
// # Resharding
//
// Coordinator.Reshard repartitions live: it drains in-flight scoring,
// re-keys every trained model under the new shard count, rebuilds the
// shard managers around the moved model pointers (no retraining), and
// leaves the central aggregator untouched, so running Q accumulators
// continue seamlessly across the topology change.
//
// # Persistence
//
// Coordinator.Save streams the whole fleet onto one record stream — a
// header with the shard count and the central aggregator, then every
// shard's Manager.Save in shard order — and Load reads it back one model
// at a time, trusting the declared count with nothing. The durable pipeline
// writes it as the manager section of its one checkpoint file, so a sharded
// checkpoint is crash-atomic by the same single rename as any other.
//
// Per-shard health is published as mcorr_shard_* metrics (step and
// per-shard score latency, pair counts, reshard activity).
package shard

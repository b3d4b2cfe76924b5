// Package manager owns the model fleet: one pairwise transition-
// probability model per measurement pair (l(l−1)/2 links for l
// measurements), trained together and stepped in lockstep over
// synchronized rows, with the paper's three-level fitness aggregation
// Q^{a,b} → Q^a → Q and machine-level problem localization on top.
//
// # Scoring path
//
// The row that is scored is a dense slice: vals[i] is IDs()[i]'s value and
// NaN is a gap. Manager.StepValues scores one: a persistent worker pool
// works through the sorted pair list in small chunks its workers claim from
// one cursor (each chunk's models warmed together, then stepped), each pair
// reads its two values by index and its model produces an Outcome at the
// pair's index, and an Aggregator folds the outcomes — always
// in canonical pair order — into per-measurement and system accumulators,
// raising alarms through the configured sink. The fold order is what makes
// trajectories bit-reproducible: the same rows always produce the same
// float64s, whatever the worker count. The slice stays the caller's — it is
// read until the call returns and never kept. Manager.Run replays a
// dataset as such slices (timeseries.Dataset.EachRow). The map Row is the
// one other form: MapRows, which every fleet embeds, is Step(Row) — it
// converts the row once with Row.FillValues, absent becoming NaN, which
// scoring never told apart, and calls StepValues.
//
// # Split score/aggregate surface
//
// The scoring and aggregation halves are usable separately, which is how
// the networked fabric (internal/shardnet) composes them: a worker's
// Manager.ScoreInto scores its subset of the global pair list, from the
// same dense row, into an Outcome slice, and a standalone Aggregator
// (NewAggregator, or Manager.Aggregator for the built-in one) folds the
// scattered outcomes of every worker with the exact same code path Step
// uses. NewSubset trains a manager over a filtered pair set. Every
// constructor keeps both endpoints of every pair inside the manager's
// ids — AddModel and LoadManager refuse a pair that is not a canonical
// pair of them — so a pair reads its two values from the row by index.
//
// # Persistence
//
// Save/LoadManager stream the full fleet as one record stream (see
// wal.RecordWriter): a small gob header — config, ids, the pair list in
// canonical order, accumulators — then one core.Model record group per
// pair, each encoded or decoded straight to or from the caller's writer
// or reader, so the fleet is never held a second time and two saves of
// one state are byte-identical. Aggregator.Save/LoadAggregator gob a
// standalone aggregator (small). WriteCheckpointFile and
// OpenCheckpointFile define the crash-atomic checkpoint file shared by
// the durable pipeline and the shardnet workers — a magic, then
// CRC-framed numbered records grouped into sections (meta, store,
// diagnose, discover, manager, end) — with CheckpointMeta carrying the
// cursor, the WAL mark and the checkpoint's epoch;
// ErrCheckpointFormat and ErrCheckpointCorrupt are its typed failures.
// Cadence decides when automatic checkpoints are due.
package manager

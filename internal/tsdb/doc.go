// Package tsdb is a small concurrency-safe in-memory time-series store: the
// landing zone for samples streamed by the collector and the source the
// models read from. Samples are kept on a fixed sampling grid per
// measurement, with optional ring retention and record-stream snapshot/restore.
//
// A store can be made durable by attaching a wal.Log (AttachWAL): every
// appended batch is then logged before the append is acknowledged, and
// ReplayWAL reconstructs post-checkpoint state after a crash. Appends,
// queries and snapshot latency are published to the obs registry
// (mcorr_tsdb_*).
package tsdb

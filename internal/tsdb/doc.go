// Package tsdb is a small concurrency-safe in-memory time-series store: the
// landing zone for samples streamed by the collector and the source the
// models read from. Samples are kept on a fixed sampling grid per
// measurement, with optional ring retention and record-stream snapshot/restore.
//
// There are two ways to read. Query and QueryAll answer an ad-hoc window
// with copies (the correlate API, offline tools). A streaming monitor
// instead binds a RowReader to its ordered measurement list once
// (Store.Rows): Ready says up to when rows are complete and ReadRow fills
// the caller's slice with the row at t, NaN for "no sample" — one read
// lock, no hashing, no allocation, whatever the fleet's width.
//
// Every series has a dense handle, given the first time the store sees
// it. A writer that learns it from Sample.Ref (AppendBatch writes it back)
// and sends it with the next sample of that series is filed by slice
// index, not by hashing the ID; a hint is checked against the ID, so a
// wrong one costs a lookup, never a misfiled sample.
//
// A store can be made durable by attaching a wal.Log (AttachWAL): every
// appended batch is then logged before the append is acknowledged, and
// ReplayWAL reconstructs post-checkpoint state after a crash. A record
// carries each sample as a per-segment handle and its value, one timestamp
// per run of samples that share it, and defines a handle by name in the
// segment's first record that uses it (see wal.go for the layout).
// Appends, queries and snapshot latency are published to the obs registry
// (mcorr_tsdb_*).
package tsdb

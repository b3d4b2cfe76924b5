// Package wal is a segmented append-only write-ahead log: the durability
// layer under the monitoring pipeline. Every record is CRC-framed and
// carries a monotone sequence number; segments rotate at a size threshold
// and old segments are dropped once a checkpoint covers them. A log opened
// after a crash truncates the torn tail of its last segment and resumes
// appending where the last intact record ended, so "logged before ack"
// appends are never lost.
//
// Record frame (all integers big-endian):
//
//	uint32 length   // payload bytes
//	uint32 crc      // CRC-32C (Castagnoli) over seq + payload
//	uint64 seq      // record sequence number, strictly increasing
//	[]byte payload
//
// Segment files are named <firstSeq as %016x>.wal and begin with an
// 8-byte magic plus the first sequence number, so a directory listing
// alone orders the log. The magic's last digit is the format version; a
// segment of another version fails with ErrFormat, never as a torn tail.
// A writer whose records lean on earlier ones in the same segment (tsdb
// defines series handles once per segment) asks NextSegment where its
// next record lands, and its reader starts at SegmentStart.
//
// Three sync policies trade durability for throughput: SyncAlways fsyncs
// every record, SyncBatch fsyncs once per appended batch, SyncNone leaves
// flushing to the OS. OPERATIONS.md carries the tuning table.
package wal

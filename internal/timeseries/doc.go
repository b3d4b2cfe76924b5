// Package timeseries provides the regular-interval time-series types the
// monitoring pipeline works with: single measurements as Series, collections
// of measurements as Dataset, the dense rows offline replay feeds a fleet
// (Dataset.EachRow), pairwise alignment into 2-D points for the
// correlation models, and calendar helpers matching the paper's evaluation
// dates (May 29 – June 27, 2008, sampled every 6 minutes).
//
// A MeasurementID names a metric on a machine; the canonical string form
// "machine/metric" (and the pair form "a/x|b/y") is what rendezvous
// hashing in the shard layer keys on, so it must stay stable across
// releases.
package timeseries

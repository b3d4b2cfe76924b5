// Package diagnose turns the scoring fabric's raw output — per-
// measurement Q^a and system Q fitness plus the alarm stream — into
// ranked root-cause explanations.
//
// The paper stops at "the measurement with the lowest Q^a localizes the
// problem"; at thousands of measurements the per-pair alarm stream that
// backs that statement is unreadable. The Engine watches every
// StepReport, keeps a bounded ring-buffer fitness history per
// measurement (and for the system aggregate), and opens an incident
// when the system fitness stays below a threshold. While an incident is
// open it walks temporal rings around the impact time T, ranks
// root-cause candidates by who broke first, how many of their pairs
// raised a pair alarm (fan-out; pair alarms need the paper's δ) and how
// far they fell below their healthy baseline, groups the broken measurements into machine and metric
// families, and maintains a compact Digest — key sources, family
// counts, temporal chain, severity — that is cheap to serialize and
// ship.
//
// The engine sits strictly off the scoring hot path: Manager.Step and
// the networked coordinator never call into it; the Monitor layer feeds
// finished StepReports to Observe after scoring completes. Digests and
// histories are served over the ops HTTP server by API
// (/api/v1/incidents, /api/v1/fitness, /api/v1/topology) and the whole
// engine state round-trips through SaveState/LoadState so incidents
// survive crash recovery bit-for-bit alongside the model fleet.
package diagnose

package mcorr

import "mcorr/internal/collector"

// Flow-control surface. The collector's overload-protection layer
// (admission queue, shed policies, per-agent rate limits, ack throttle
// hints) is configured through CollectorServer.SetFlow with these types.
// Past the collector nothing queues: a monitor scores each completed row
// inline, so a slow fleet holds Ingest — and through it the agent's ack.
type (
	// FlowConfig tunes the collector server's flow-control layer (see
	// CollectorServer.SetFlow). The zero value disables it.
	FlowConfig = collector.FlowConfig
	// ShedPolicy selects what the server does with a batch when the
	// admission queue is full.
	ShedPolicy = collector.ShedPolicy
	// AckInfo is an ack's stored count plus the server's throttle hint.
	AckInfo = collector.AckInfo
)

// Shed policies (see the collector package for semantics).
const (
	ShedBlock      = collector.ShedBlock
	ShedDropOldest = collector.ShedDropOldest
	ShedReject     = collector.ShedReject
)

// ParseShedPolicy parses "block", "drop-oldest" or "reject".
func ParseShedPolicy(s string) (ShedPolicy, error) { return collector.ParseShedPolicy(s) }

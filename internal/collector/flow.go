package collector

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mcorr/internal/tsdb"
)

// ShedPolicy selects what the server does with an incoming sample batch
// when the admission queue in front of the sink is full.
type ShedPolicy int

const (
	// ShedBlock applies backpressure: the handler waits for queue space,
	// which in turn stalls the agent's connection (it is waiting for the
	// ack). Nothing is dropped; a persistently slow sink slows every
	// agent down to its pace.
	ShedBlock ShedPolicy = iota
	// ShedDropOldest evicts the oldest queued batch to make room for the
	// new one. The evicted batch is acked with stored=0 plus a throttle
	// hint, so its agent keeps the samples buffered and retries later.
	ShedDropOldest
	// ShedReject refuses the new batch outright: it is acked with
	// stored=0 plus a throttle hint and never enqueued. Queued batches
	// are unaffected.
	ShedReject
)

// String returns the policy's flag spelling.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDropOldest:
		return "drop-oldest"
	case ShedReject:
		return "reject"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy parses the -shed flag values "block", "drop-oldest",
// "reject".
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch strings.ToLower(s) {
	case "block":
		return ShedBlock, nil
	case "drop-oldest", "drop_oldest", "dropoldest":
		return ShedDropOldest, nil
	case "reject":
		return ShedReject, nil
	default:
		return 0, fmt.Errorf("collector: unknown shed policy %q (want block, drop-oldest or reject)", s)
	}
}

// FlowConfig tunes the server's flow-control and overload-protection
// layer. The zero value disables all of it: batches are appended to the
// sink inline from the handler, with no admission queue, no rate limits
// and no write deadline — the pre-flow-control behavior.
type FlowConfig struct {
	// QueueDepth bounds the admission queue between the connection
	// handlers and the sink (in batches). Zero disables the queue and
	// appends inline from each handler.
	QueueDepth int
	// Shed picks what happens to a batch when the queue is full
	// (default ShedBlock).
	Shed ShedPolicy
	// AgentRate is a per-agent token-bucket rate limit in samples per
	// second, keyed by agent name. Zero disables rate limiting.
	AgentRate float64
	// AgentBurst is the token-bucket capacity in samples
	// (0 = max(AgentRate, MaxBatch)).
	AgentBurst int
	// WriteTimeout bounds each ack write so a stalled agent that never
	// reads cannot pin a handler goroutine. Zero selects the server's
	// read-idle timeout (symmetric deadlines).
	WriteTimeout time.Duration
	// ThrottleDelay is the delay hint attached to shed or rate-limited
	// acks, and to successful acks once the queue passes 3/4 occupancy
	// (default 100ms).
	ThrottleDelay time.Duration
}

func (c FlowConfig) withDefaults() FlowConfig {
	if c.ThrottleDelay <= 0 {
		c.ThrottleDelay = 100 * time.Millisecond
	}
	if c.AgentRate > 0 && c.AgentBurst <= 0 {
		c.AgentBurst = int(defaultBurst(c.AgentRate))
	}
	return c
}

// defaultBurst is the depth of a token bucket nobody sized: one second of
// its rate, and never less than one full batch.
func defaultBurst(rate float64) float64 { return max(rate, MaxBatch) }

// appendJob is one queued sink append: the decoded batch, the sink it
// goes to (the connection's tenant sink, or the server's fixed sink),
// plus the reply channel its handler is waiting on. Each connection owns
// one job and one reply channel and reuses them for every batch, keeping
// the admission path allocation-free in steady state.
type appendJob struct {
	batch []tsdb.Sample
	sink  Sink
	reply chan appendResult
}

// appendResult is the sink's verdict on one queued batch.
type appendResult struct {
	stored  int
	err     error
	dropped bool // evicted by ShedDropOldest before reaching the sink
}

// tokenBucket is the rate-limit state of one agent or one tenant, guarded
// by its limiter's mutex. It starts full: tokens = burst, last = now.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket at rate tokens per second, up to burst, for the
// time since it was last used, and attempts to withdraw n tokens. On
// success it reports ok and the remaining whole tokens (the credit to
// advertise). On refusal it reports how long the sender should wait for
// the bucket to refill enough, and the currently available whole tokens.
func (b *tokenBucket) take(rate, burst float64, n int, now time.Time) (ok bool, wait time.Duration, credit int) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*rate, burst)
	}
	b.last = now
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0, int(b.tokens)
	}
	wait = time.Duration((need - b.tokens) / rate * float64(time.Second))
	return false, wait, int(b.tokens)
}

// limiter applies a per-agent token-bucket rate limit keyed by agent
// name. Cardinality is bounded by fleet size (one bucket per agent name,
// like the per-agent last-seen gauge).
type limiter struct {
	rate  float64 // tokens (samples) per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

func newLimiter(rate float64, burst int) *limiter {
	return &limiter{rate: rate, burst: float64(burst), buckets: make(map[string]*tokenBucket)}
}

// take is tokenBucket.take on the named agent's bucket.
func (l *limiter) take(agent string, n int, now time.Time) (ok bool, wait time.Duration, credit int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[agent]
	if !found {
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[agent] = b
	}
	return b.take(l.rate, l.burst, n, now)
}

// forget drops an agent's bucket (called when its last connection goes
// away, so the map tracks the live fleet, not its history).
func (l *limiter) forget(agent string) {
	l.mu.Lock()
	delete(l.buckets, agent)
	l.mu.Unlock()
}

// rateMeter keeps an exponentially weighted moving average of accepted
// samples per second for each agent, mirrored onto the per-agent rate
// gauge. Guarded by its own mutex; updates are per accepted batch, not
// per sample.
type rateMeter struct {
	mu    sync.Mutex
	rates map[string]*ewmaRate
}

type ewmaRate struct {
	rate float64
	last time.Time
}

// ewmaHalfLife is the decay half-life of the per-agent rate estimate.
const ewmaHalfLife = 10 * time.Second

func newRateMeter() *rateMeter {
	return &rateMeter{rates: make(map[string]*ewmaRate)}
}

// observe records n accepted samples for the agent at time now and
// returns the updated rate estimate in samples per second.
func (m *rateMeter) observe(agent string, n int, now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rates[agent]
	if !ok {
		e = &ewmaRate{last: now}
		m.rates[agent] = e
	}
	dt := now.Sub(e.last).Seconds()
	e.last = now
	if dt <= 0 {
		// Same-instant batches accumulate; the next spaced batch decays.
		e.rate += float64(n)
		return e.rate
	}
	inst := float64(n) / dt
	alpha := 1 - halfLifeDecay(dt)
	e.rate += alpha * (inst - e.rate)
	return e.rate
}

// forget drops an agent's rate state.
func (m *rateMeter) forget(agent string) {
	m.mu.Lock()
	delete(m.rates, agent)
	m.mu.Unlock()
}

// halfLifeDecay returns the EWMA retention factor for a gap of dt
// seconds under ewmaHalfLife: 0.5 at exactly one half-life.
func halfLifeDecay(dt float64) float64 {
	return math.Exp2(-dt / ewmaHalfLife.Seconds())
}

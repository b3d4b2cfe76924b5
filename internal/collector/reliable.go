package collector

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mcorr/internal/tsdb"
)

// ReliableConfig tunes a ReliableAgent.
type ReliableConfig struct {
	// MaxAttempts bounds connection attempts per flush (0 = 5).
	MaxAttempts int
	// Backoff is the base delay between attempts, doubling each retry
	// with equal jitter applied (0 = 100ms).
	Backoff time.Duration
	// MaxBackoff caps the delay before jitter (0 = 5s).
	MaxBackoff time.Duration
	// BufferLimit bounds the number of samples queued while the server
	// is unreachable; beyond it the oldest samples not currently being
	// delivered are dropped (0 = 65536).
	BufferLimit int
	// Sleep replaces the delay function in tests. When nil, backoff and
	// throttle waits use a timer that Close interrupts; a custom Sleep
	// is called as-is and is not interruptible.
	Sleep func(time.Duration)
	// Tenant is the tenant named in each (re)connection's hello frame.
	// Empty emits the legacy hello, which a multi-tenant server routes
	// to its default tenant. Ignored when Dial is set.
	Tenant string
	// Dial replaces the connection factory in tests (nil = DialTenant
	// with the configured Tenant).
	Dial func(addr, name string) (*Agent, error)
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.BufferLimit <= 0 {
		c.BufferLimit = 65536
	}
	if c.Dial == nil {
		tenant := c.Tenant
		c.Dial = func(addr, name string) (*Agent, error) {
			return DialTenant(addr, name, tenant)
		}
	}
	return c
}

var errReliableClosed = errors.New("reliable agent: closed")

// ReliableAgent wraps the plain Agent with reconnection, jittered
// exponential backoff, and a bounded resend buffer: samples accepted by
// Send are delivered exactly once when a connection can be
// (re-)established, in order, with the oldest dropped first under
// prolonged outages. Delivery is single-flight — concurrent Send/Flush
// calls coalesce onto one flusher instead of racing over the pending
// buffer — and server throttle hints (ack delay/credit) are honored.
// Safe for concurrent use.
type ReliableAgent struct {
	addr string
	name string
	cfg  ReliableConfig

	mu        sync.Mutex
	cond      sync.Cond // signaled when the active flusher finishes
	agent     *Agent
	pending   []tsdb.Sample
	inflight  int           // leading samples of pending owned by the active flusher
	credit    int           // batch-size cap from the last throttle hint (0 = none)
	hintDelay time.Duration // delay hint left over from a flush's final ack
	dropped   int
	flushing  bool
	closed    bool
	closeCh   chan struct{}
}

// NewReliableAgent returns a reliable agent for the given server address.
// No connection is attempted until the first Send.
func NewReliableAgent(addr, name string, cfg ReliableConfig) *ReliableAgent {
	r := &ReliableAgent{addr: addr, name: name, cfg: cfg.withDefaults(), closeCh: make(chan struct{})}
	r.cond.L = &r.mu
	return r
}

// Dropped reports how many samples were discarded due to the buffer limit.
func (r *ReliableAgent) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Pending reports how many samples await delivery.
func (r *ReliableAgent) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Send queues the batch and attempts delivery of everything pending. It
// returns nil once the queue is drained (possibly by a concurrent flusher
// that picked the samples up); otherwise the samples stay buffered for
// the next Send and the last connection error is returned.
func (r *ReliableAgent) Send(batch []tsdb.Sample) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errReliableClosed
	}
	r.pending = append(r.pending, batch...)
	if over := len(r.pending) - r.cfg.BufferLimit; over > 0 {
		// Drop the oldest samples the active flusher does not hold: the
		// in-flight prefix is possibly already on the wire, so evicting
		// it would corrupt the trim accounting when the ack lands.
		keep := r.inflight
		if over > len(r.pending)-keep {
			over = len(r.pending) - keep
		}
		if over > 0 {
			r.pending = append(r.pending[:keep], r.pending[keep+over:]...)
			r.dropped += over
		}
	}
	return r.flushLocked()
}

// Flush attempts delivery of everything pending without queueing new data.
func (r *ReliableAgent) Flush() error {
	r.mu.Lock()
	return r.flushLocked()
}

// flushLocked drains the pending buffer, coalescing concurrent callers
// onto a single flusher. Callers hold r.mu; it is released on return.
func (r *ReliableAgent) flushLocked() error {
	for {
		if r.closed {
			r.mu.Unlock()
			return errReliableClosed
		}
		if len(r.pending) == 0 {
			// Nothing left — either there was nothing to do, or the
			// active flusher delivered our samples along with its own.
			r.mu.Unlock()
			return nil
		}
		if !r.flushing {
			break
		}
		r.cond.Wait()
	}
	r.flushing = true
	r.mu.Unlock()

	err := r.deliver()

	r.mu.Lock()
	r.flushing = false
	r.inflight = 0
	r.cond.Broadcast()
	r.mu.Unlock()
	return err
}

// deliver is the single-flight flush loop: dial if needed, send the
// pending prefix, trim what the server acked, back off with jitter on
// failure, and honor server throttle hints. Only one goroutine runs it
// at a time. It owes the samples pending when it starts and returns once
// they are acked: samples that concurrent Sends append meanwhile go out
// on the way when a batch can take them, and otherwise with the next
// flush. Only failed passes — a dial error, an unhealthy send, a send that
// made no progress — count against MaxAttempts, so a flush that keeps
// delivering never gives up.
func (r *ReliableAgent) deliver() error {
	// Honor a delay hint that arrived with the final ack of the previous
	// flush: there was no in-loop wait left to serve it then, so it is
	// carried here and served before the first send — through sleep, so a
	// concurrent Close interrupts it instead of waiting out the hint.
	r.mu.Lock()
	carried := r.hintDelay
	r.hintDelay = 0
	owed := len(r.pending)
	r.mu.Unlock()
	if carried > 0 {
		if !r.sleep(carried) {
			return errReliableClosed
		}
	}
	backoff := r.cfg.Backoff
	var lastErr error
	for failed := 0; failed < r.cfg.MaxAttempts; {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return errReliableClosed
		}
		if len(r.pending) == 0 || owed <= 0 {
			r.mu.Unlock()
			return nil
		}
		if r.agent == nil {
			r.mu.Unlock()
			agent, err := r.cfg.Dial(r.addr, r.name)
			r.mu.Lock()
			if r.closed {
				// Close ran while we were dialing: do not resurrect the
				// connection it can no longer see.
				r.mu.Unlock()
				if err == nil {
					_ = agent.Close()
				}
				return errReliableClosed
			}
			if err != nil {
				r.mu.Unlock()
				lastErr = err
				failed++
				if !r.sleep(jittered(backoff)) {
					return errReliableClosed
				}
				backoff = nextBackoff(backoff, r.cfg.MaxBackoff)
				continue
			}
			r.agent = agent
		}
		agent := r.agent
		n := len(r.pending)
		if r.credit > 0 && n > r.credit {
			n = r.credit
		}
		// The flusher sends the prefix in place, not a copy of it. While
		// inflight = n it alone owns pending[:n]: Send only appends behind
		// it and drops only beyond it, an append that outgrows the array
		// moves pending and leaves this one untouched, and trimLocked runs
		// here, after the send. The capacity cap keeps toSend from
		// reaching the samples behind it.
		toSend := r.pending[:n:n]
		r.inflight = n
		r.mu.Unlock()

		sendErr := agent.Send(toSend)
		hint := agent.LastHint()

		if sendErr != nil {
			lastErr = sendErr
			// A partial delivery acked a leading prefix: drop exactly
			// those samples and resume from the right offset instead of
			// re-sending data the server has already stored. A healthy
			// ack-0 means the server shed or rate-limited the batch —
			// the samples stay pending and the hint says when to retry.
			acked, healthy := 0, false
			var pe *PartialSendError
			if errors.As(sendErr, &pe) {
				acked, healthy = pe.Sent, pe.Err == nil
			}
			r.mu.Lock()
			r.trimLocked(acked)
			owed -= acked
			r.inflight = 0
			r.credit = hint.Credit
			if !healthy {
				// The connection is suspect: drop it and retry from scratch.
				_ = agent.Close()
				if r.agent == agent {
					r.agent = nil
				}
			}
			r.mu.Unlock()
			if healthy && acked > 0 {
				continue // progress over a live connection; no backoff
			}
			failed++
			wait := jittered(backoff)
			if healthy && hint.Delay > 0 {
				wait = hint.Delay // the server said exactly how long
			}
			if !r.sleep(wait) {
				return errReliableClosed
			}
			backoff = nextBackoff(backoff, r.cfg.MaxBackoff)
			continue
		}
		r.mu.Lock()
		// Remove exactly what was sent; new samples may have arrived
		// behind the in-flight prefix.
		r.trimLocked(len(toSend))
		owed -= len(toSend)
		r.inflight = 0
		r.credit = hint.Credit
		done := len(r.pending) == 0 || owed <= 0
		if done {
			// Nothing left to pace in this flush; stash the delay for the
			// next one so the server's throttle survives the flush boundary
			// the same way credit does.
			r.hintDelay = hint.Delay
		}
		r.mu.Unlock()
		if done {
			return nil
		}
		if hint.Delay > 0 {
			if !r.sleep(hint.Delay) {
				return errReliableClosed
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("delivery incomplete")
	}
	return fmt.Errorf("reliable agent: %w", lastErr)
}

// sleep waits for d, or until Close. It reports false when the agent
// closed during the wait. A test-injected Sleep is called as-is.
func (r *ReliableAgent) sleep(d time.Duration) bool {
	if d <= 0 {
		return !r.isClosed()
	}
	if r.cfg.Sleep != nil {
		r.cfg.Sleep(d)
		return !r.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.closeCh:
		return false
	}
}

func (r *ReliableAgent) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// jittered applies equal jitter: a uniform draw from [d/2, d), so
// synchronized agents spread their retries instead of stampeding.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// nextBackoff doubles the delay up to the cap.
func nextBackoff(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		d = max
	}
	return d
}

// trimLocked drops the first n pending samples (the delivered prefix).
// Caller holds r.mu.
func (r *ReliableAgent) trimLocked(n int) {
	if n <= 0 {
		return
	}
	if n >= len(r.pending) {
		r.pending = r.pending[:0]
		return
	}
	r.pending = append(r.pending[:0], r.pending[n:]...)
}

// Close stops the agent: pending samples are discarded, a flusher blocked
// in a backoff or throttle sleep is woken, and any connection a flusher
// establishes concurrently is closed rather than leaked.
func (r *ReliableAgent) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.pending = nil
	agent := r.agent
	r.agent = nil
	close(r.closeCh)
	r.cond.Broadcast()
	r.mu.Unlock()
	if agent != nil {
		return agent.Close()
	}
	return nil
}

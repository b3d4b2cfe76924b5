package collector

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// serverReadBuffer sizes a connection's reader: one read takes a whole
// samples frame of a few hundred samples, header included.
const serverReadBuffer = 16 << 10

// Sink receives decoded sample batches. tsdb.Store satisfies it.
//
// The server decodes every frame of a connection into one batch it reuses:
// the batch's backing array is overwritten by the next frame once
// AppendBatch returns, so a sink that keeps samples past the call copies
// the slice. The Sample values themselves stay valid, the ID strings
// included (they are interned per connection and never rewritten).
type Sink interface {
	AppendBatch([]tsdb.Sample) error
}

var _ Sink = (*tsdb.Store)(nil)

// ServerStats is a snapshot of server counters.
type ServerStats struct {
	Connections int // currently open
	TotalConns  int
	Samples     int
	Heartbeats  int
	Errors      int
	Shed        int // batches dropped or rejected by the admission queue
	Throttled   int // batches refused by the per-agent rate limit
}

// AgentStatus is the server's view of one connected agent — the ops
// surface for "which machines are reporting, and how recently".
type AgentStatus struct {
	Name   string
	Remote string
	// Tenant is the resolved tenant owning this connection's batches
	// ("" on a single-sink server, or before the hello resolves one).
	Tenant      string
	ConnectedAt time.Time
	LastFrame   time.Time
	Samples     int
}

// Server accepts agent connections and feeds their samples into a sink.
// Construct with NewServer, configure flow control with SetFlow, start
// with Serve, stop with Close.
type Server struct {
	sink Sink
	log  *obs.Logger

	router   TenantRouter   // nil = single-sink server
	tlimiter *tenantLimiter // nil unless a router is installed

	flow    FlowConfig
	limiter *limiter   // nil when rate limiting is off
	meter   *rateMeter // nil when flow control is fully off
	queue   chan *appendJob
	drained chan struct{} // closed when the drainer has exited

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*AgentStatus
	closed   bool
	stats    ServerStats
	wg       sync.WaitGroup
	readIdle time.Duration
}

// NewServer returns a server delivering to sink. logger may be nil to
// discard diagnostics; a non-nil logger keeps its destination and flags
// but records are rendered through the structured key=value logger (see
// NewServerWithLogger for full control over levels and bound fields).
func NewServer(sink Sink, logger *log.Logger) (*Server, error) {
	var ol *obs.Logger
	if logger != nil {
		ol = obs.FromStd(logger)
	}
	return NewServerWithLogger(sink, ol)
}

// NewServerWithLogger returns a server delivering to sink, logging through
// the given structured logger (nil discards diagnostics). Every record
// carries component=collector.
func NewServerWithLogger(sink Sink, logger *obs.Logger) (*Server, error) {
	if sink == nil {
		return nil, errors.New("collector: nil sink")
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	return &Server{
		sink:     sink,
		log:      logger.With("component", "collector"),
		conns:    make(map[net.Conn]*AgentStatus),
		readIdle: 2 * time.Minute,
	}, nil
}

// SetIdleTimeout changes the per-read idle timeout (default 2 minutes).
// Must be called before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.readIdle = d }

// SetFlow installs the flow-control layer: a bounded admission queue in
// front of the sink with the configured shed policy, per-agent
// token-bucket rate limits, ack write deadlines, and throttle hints on
// overloaded acks. Must be called before Serve. The zero FlowConfig
// restores the inline, unprotected path.
func (s *Server) SetFlow(cfg FlowConfig) {
	s.flow = cfg.withDefaults()
	if s.flow.AgentRate > 0 {
		s.limiter = newLimiter(s.flow.AgentRate, s.flow.AgentBurst)
	} else {
		s.limiter = nil
	}
	s.meter = newRateMeter()
	if s.flow.QueueDepth > 0 {
		s.queue = make(chan *appendJob, s.flow.QueueDepth)
		obsFlowQueueLimit.Set(float64(s.flow.QueueDepth))
	} else {
		s.queue = nil
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector listen %s: %w", addr, err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close is called. It returns the
// first accept error after shutdown begins (nil for a clean close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("collector: server closed")
	}
	s.ln = ln
	if s.queue != nil && s.drained == nil {
		s.drained = make(chan struct{})
		go s.drain()
	}
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("collector accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		now := time.Now()
		s.conns[conn] = &AgentStatus{
			Remote:      conn.RemoteAddr().String(),
			ConnectedAt: now,
			LastFrame:   now,
		}
		s.stats.Connections++
		s.stats.TotalConns++
		s.mu.Unlock()
		obsConnections.Inc()
		obsConnsTotal.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// drain is the admission-queue consumer: a single goroutine applying
// queued batches to the sink in FIFO order and replying to the handler
// waiting on each job. It exits when the queue is closed (after every
// handler has returned), having answered every queued job.
func (s *Server) drain() {
	defer close(s.drained)
	for job := range s.queue {
		obsFlowQueueDepth.Set(float64(len(s.queue)))
		appendStart := time.Now()
		err := job.sink.AppendBatch(job.batch)
		obsAppendSeconds.Observe(time.Since(appendStart).Seconds())
		job.reply <- appendResult{stored: storedOf(len(job.batch), err), err: err}
	}
	obsFlowQueueDepth.Set(0)
}

// storedOf converts a sink verdict into the acked sample count: the whole
// batch on success, the applied prefix on a partial append, zero on an
// opaque failure.
func storedOf(batchLen int, err error) int {
	if err == nil {
		return batchLen
	}
	var pe *tsdb.PartialAppendError
	if errors.As(err, &pe) {
		return pe.Stored
	}
	return 0
}

// admit routes one decoded batch to the sink, through the admission queue
// when one is configured, applying the shed policy when it is full. The
// job (with its reply channel) is owned by the calling handler and reused
// across batches.
func (s *Server) admit(job *appendJob) appendResult {
	if s.queue == nil {
		appendStart := time.Now()
		err := job.sink.AppendBatch(job.batch)
		obsAppendSeconds.Observe(time.Since(appendStart).Seconds())
		return appendResult{stored: storedOf(len(job.batch), err), err: err}
	}
	switch s.flow.Shed {
	case ShedBlock:
		s.queue <- job
	case ShedReject:
		select {
		case s.queue <- job:
		default:
			s.countShed(len(job.batch), "reject")
			return appendResult{dropped: true}
		}
	case ShedDropOldest:
		for {
			select {
			case s.queue <- job:
			default:
				// Full: evict the oldest queued job (racing the drainer
				// and other producers for it is fine — whoever receives
				// it owns the verdict) and retry the enqueue.
				select {
				case old := <-s.queue:
					s.countShed(len(old.batch), "drop_oldest")
					old.reply <- appendResult{dropped: true}
				default:
				}
				continue
			}
			break
		}
	}
	obsFlowQueueDepth.Set(float64(len(s.queue)))
	return <-job.reply
}

// countShed records one shed batch on the stats and metrics surfaces.
func (s *Server) countShed(samples int, reason string) {
	s.mu.Lock()
	s.stats.Shed++
	s.mu.Unlock()
	obsFlowShed.With(reason).Inc()
	obsFlowShedSamples.Add(uint64(samples))
}

// writeAck sends an ack frame under the configured write deadline, so a
// stalled agent that never reads cannot pin the handler goroutine. The
// deadline is symmetric to the read-idle timeout unless FlowConfig
// overrides it.
func (s *Server) writeAck(conn net.Conn, info AckInfo) error {
	timeout := s.flow.WriteTimeout
	if timeout <= 0 {
		timeout = s.readIdle
	}
	if timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	if info.Throttled() {
		obsFlowHints.Inc()
	}
	err := WriteFrame(conn, Frame{Type: MsgAck, Payload: EncodeAckInfo(info)})
	if timeout > 0 {
		_ = conn.SetWriteDeadline(time.Time{})
	}
	return err
}

// throttleDelay returns the configured throttle-hint delay, defaulting
// to 100ms when flow control was never configured (the tenant limiter
// is active whenever a router is installed, SetFlow or not).
func (s *Server) throttleDelay() time.Duration {
	if s.flow.ThrottleDelay > 0 {
		return s.flow.ThrottleDelay
	}
	return 100 * time.Millisecond
}

// queueHint returns the advisory delay to attach to an ack given the
// admission queue's occupancy: zero below 3/4 full, the configured
// throttle delay at or above it. A shed or rate-limited ack always
// carries a delay regardless of occupancy.
func (s *Server) queueHint() time.Duration {
	if s.queue == nil {
		return 0
	}
	if 4*len(s.queue) >= 3*cap(s.queue) {
		return s.flow.ThrottleDelay
	}
	return 0
}

// handle runs one agent connection to completion.
func (s *Server) handle(conn net.Conn) {
	agent := conn.RemoteAddr().String()
	named := false
	// With a tenant router the connection's sink is resolved from its
	// hello (or lazily, for legacy agents that send samples before —
	// or without — a hello); otherwise it is the server's fixed sink.
	tenant := ""
	sink := s.sink
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.stats.Connections--
		last := named && !s.agentStillConnectedLocked(agent)
		s.mu.Unlock()
		obsConnections.Dec()
		if last {
			// Last connection for this agent name: drop its labeled
			// series and limiter state so cardinality tracks the live
			// fleet.
			obsAgentLastSeen.Delete(agent)
			obsFlowAgentRate.Delete(agent)
			if s.limiter != nil {
				s.limiter.forget(agent)
			}
			if s.meter != nil {
				s.meter.forget(agent)
			}
		}
	}()
	// job and its reply channel are reused for every batch on this
	// connection, keeping the admission path allocation-free. So are the
	// reader, the payload buffer, the decoded batch and the ID table: a
	// frame is read and decoded into memory the previous one used. That
	// is safe because admit returns only once the sink is done with the
	// batch (see Sink) — the drainer and a drop-oldest evictor both finish
	// reading the job before they reply to it.
	job := &appendJob{reply: make(chan appendResult, 1)}
	br := bufio.NewReaderSize(conn, serverReadBuffer)
	var (
		payload []byte
		batch   []tsdb.Sample
		ids     = make(map[string]timeseries.MeasurementID)
	)
	for {
		if s.readIdle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readIdle))
		}
		f, err := readFrameInto(br, &payload)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.countError()
				obsReadErrors.Inc()
				s.log.Error("read failed", "agent", agent, "err", err)
			}
			return
		}
		obsFrames.Inc()
		s.touch(conn, "", 0)
		switch f.Type {
		case MsgHello:
			var wireTenant string
			agent, wireTenant = DecodeHello(f.Payload)
			named = agent != ""
			s.touch(conn, agent, 0)
			if s.router != nil {
				name, tsink, rerr := s.router.SinkFor(wireTenant)
				if rerr != nil {
					s.countError()
					s.log.Error("tenant refused", "agent", agent, "tenant", wireTenant, "err", rerr)
					return
				}
				tenant, sink = name, tsink
				s.setConnTenant(conn, tenant)
			}
			s.log.Info("hello", "agent", agent, "tenant", tenant)
		case MsgHeartbeat:
			if _, err := DecodeHeartbeat(f.Payload); err != nil {
				s.countError()
				obsDecodeErrors.Inc()
				s.log.Error("bad heartbeat", "agent", agent, "err", err)
				return
			}
			s.mu.Lock()
			s.stats.Heartbeats++
			s.mu.Unlock()
			obsHeartbeats.Inc()
		case MsgSamples:
			batch, err = decodeSamplesInto(batch, f.Payload, ids)
			if err != nil {
				s.countError()
				obsDecodeErrors.Inc()
				s.log.Error("bad samples", "agent", agent, "err", err)
				return
			}
			if sink == nil {
				// Router installed, no hello yet: the legacy wire form
				// maps to the router's default tenant.
				name, tsink, rerr := s.router.SinkFor("")
				if rerr != nil {
					s.countError()
					s.log.Error("tenant refused", "agent", agent, "tenant", "", "err", rerr)
					return
				}
				tenant, sink = name, tsink
				s.setConnTenant(conn, tenant)
			}
			if !s.handleSamples(conn, agent, tenant, sink, job, batch) {
				return
			}
		case MsgBye:
			s.log.Info("bye", "agent", agent)
			return
		default:
			s.countError()
			s.log.Warn("unexpected frame", "agent", agent, "type", f.Type.String())
			return
		}
	}
}

// handleSamples admits one decoded batch into the connection's sink and
// acks it, applying the tenant and per-agent rate limits, the admission
// queue's shed policy, and throttle hints. It reports whether the
// connection should stay up.
func (s *Server) handleSamples(conn net.Conn, agent, tenant string, sink Sink, job *appendJob, batch []tsdb.Sample) bool {
	// Tenant rate limit first: one tenant's firehose is refused before it
	// can contend with other tenants for the shared admission queue.
	if s.router != nil {
		rate, burst := s.router.TenantLimit(tenant)
		if rate > 0 {
			if ok, wait, credit := s.tlimiter.take(tenant, rate, float64(burst), len(batch), time.Now()); !ok {
				return s.refuse(conn, obsFlowTenantThrottled.With(tenant), wait, credit)
			}
		}
	}

	// Per-agent rate limit next.
	if s.limiter != nil {
		if ok, wait, credit := s.limiter.take(agent, len(batch), time.Now()); !ok {
			return s.refuse(conn, obsFlowThrottled, wait, credit)
		}
	}

	job.batch = batch
	job.sink = sink
	res := s.admit(job)
	job.batch = nil
	if res.dropped {
		// Shed by the admission queue: acked as stored-0 so the agent
		// keeps the samples buffered and backs off per the hint.
		if err := s.writeAck(conn, AckInfo{Stored: 0, Delay: s.flow.ThrottleDelay}); err != nil {
			s.countError()
			return false
		}
		return true
	}
	stored := res.stored
	if res.err != nil {
		// Sink errors (e.g. stale samples) are reported but do not kill
		// the connection. The ack carries the stored prefix — 0 for an
		// opaque failure, PartialAppendError.Stored when the sink
		// applied the leading samples — so the agent can resume from
		// the right offset instead of re-sending data the store has
		// already accepted (and WAL-logged).
		s.countError()
		obsSinkErrors.Inc()
		s.log.Error("sink append failed", "agent", agent, "batch", len(batch), "stored", stored, "err", res.err)
	}
	if stored > 0 {
		s.mu.Lock()
		s.stats.Samples += stored
		s.mu.Unlock()
		obsSamples.Add(uint64(stored))
		if s.router != nil {
			obsFlowTenantSamples.With(tenant).Add(uint64(stored))
		}
		s.touch(conn, "", stored)
		if s.meter != nil {
			obsFlowAgentRate.With(agent).Set(s.meter.observe(agent, stored, time.Now()))
		}
	}
	if err := s.writeAck(conn, AckInfo{Stored: stored, Delay: s.queueHint()}); err != nil {
		s.countError()
		return false
	}
	return true
}

// refuse acks a batch that is over a rate limit: refused whole, with a hint
// saying when to retry — never sooner than the throttle delay — and how
// much the bucket can take now. It reports whether the connection is still
// usable.
func (s *Server) refuse(conn net.Conn, throttled *obs.Counter, wait time.Duration, credit int) bool {
	s.mu.Lock()
	s.stats.Throttled++
	s.mu.Unlock()
	throttled.Inc()
	if err := s.writeAck(conn, AckInfo{Stored: 0, Delay: max(wait, s.throttleDelay()), Credit: credit}); err != nil {
		s.countError()
		return false
	}
	return true
}

// agentStillConnectedLocked reports whether any other live connection
// claims the given agent name. Caller holds s.mu.
func (s *Server) agentStillConnectedLocked(name string) bool {
	for _, st := range s.conns {
		if st.Name == name {
			return true
		}
	}
	return false
}

// setConnTenant records the tenant a connection's hello resolved to, so
// tenant teardown (ForgetTenant) can find the agents it owns.
func (s *Server) setConnTenant(conn net.Conn, tenant string) {
	s.mu.Lock()
	if st, ok := s.conns[conn]; ok {
		st.Tenant = tenant
	}
	s.mu.Unlock()
}

// touch updates a connection's liveness record.
func (s *Server) touch(conn net.Conn, name string, samples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.conns[conn]
	if !ok {
		return
	}
	st.LastFrame = time.Now()
	if name != "" {
		st.Name = name
	}
	st.Samples += samples
	if st.Name != "" {
		obsAgentLastSeen.With(st.Name).Set(float64(st.LastFrame.UnixNano()) / 1e9)
	}
}

func (s *Server) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops accepting, closes every live connection, and waits for the
// handlers (and the admission-queue drainer, if any) to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	drained := s.drained
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	if drained != nil {
		// Every handler has returned, so no more jobs can be enqueued;
		// closing the queue lets the drainer answer what is left and exit.
		close(s.queue)
		<-drained
	}
	return err
}

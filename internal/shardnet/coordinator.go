package shardnet

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/shard"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// Tunables for the coordinator's control plane.
const (
	defaultCheckpointEvery = 240
	dialTimeout            = 500 * time.Millisecond
	handshakeTimeout       = 30 * time.Second
	redialInterval         = 150 * time.Millisecond
	awaitTick              = 100 * time.Millisecond
	latencyAlpha           = 0.2
)

// Config configures a networked shard coordinator.
type Config struct {
	// Workers lists the control addresses of the shard worker processes;
	// position is the shard index. Required, at least one.
	Workers []string
	// Listen is the outcome-return listen address (default
	// "127.0.0.1:0"). Workers dial the resolved address back, so it must
	// be reachable from every worker host; see Advertise.
	Listen string
	// Advertise overrides the outcome-return address announced to
	// workers when the listen address is not directly dialable (e.g.
	// an unspecified host).
	Advertise string
	// Manager is the shared fleet configuration, exactly as for the
	// in-process fabric.
	Manager manager.Config
	// Keep optionally restricts the trained pair graph, as in
	// shard.Config.
	Keep func(manager.Pair) bool
	// CheckpointEvery is the worker checkpoint cadence in rows
	// (default 240). The replay ring retains 4×CheckpointEvery+64 rows,
	// so any worker whose checkpoint is at most that far behind recovers
	// without retraining.
	CheckpointEvery int
	// RebalanceEvery enables latency-driven work stealing: every
	// RebalanceEvery rows the coordinator compares per-shard round-trip
	// EWMAs and migrates pairs from the slowest to the fastest worker
	// when the gap exceeds RebalanceFactor. Zero disables.
	RebalanceEvery int
	// RebalanceFactor is the slow/fast EWMA ratio that triggers a steal
	// (default 1.5).
	RebalanceFactor float64
	// Logger receives diagnostics; nil discards them.
	Logger *obs.Logger
}

// Coordinator drives shard workers over the network while keeping the
// authoritative Aggregator — and therefore the merged Q^a/Q trajectory —
// in this process. It satisfies the same fleet surface as the in-process
// Manager and shard Coordinator and produces bit-identical reports.
type Coordinator struct {
	cfg     Config
	log     *obs.Logger
	runID   string
	ids     []timeseries.MeasurementID
	agg     *manager.Aggregator
	srv     *collector.Server
	retAddr string

	// mu is the step/control lock: Step, rebalance, reconnection and
	// Close serialize on it.
	mu          sync.Mutex
	closed      bool
	seq         uint64
	planVersion uint64
	pairs       []manager.Pair
	pairIdx     [][2]int
	outcomes    []manager.Outcome
	owner       map[manager.Pair]int
	localPairs  [][]manager.Pair
	localIdx    [][]int
	conns       []*workerConn
	lastDial    []time.Time
	baseState   []*manager.Manager // trained shards awaiting hand-off; nil once streaming began
	pendInstall map[manager.Pair]pendingModel
	latGauges   []*obs.Gauge
	ring        ringState

	// pmu guards the outcome-collection state shared with the collector
	// sink goroutines.
	pmu     sync.Mutex
	notify  chan struct{}
	applied []uint64
	collect collectState
	lat     []float64
	latSet  []bool
}

// pendingModel is a model mid-migration: extracted from its donor and
// retained until its recipient confirms a checkpoint that contains it.
type pendingModel struct {
	owner int
	model *core.Model
}

// collectState tracks the in-flight row's outcome assembly.
type collectState struct {
	seq      uint64
	pv       uint64
	t0       time.Time
	got      []bool
	received []int
	seen     []map[int]bool
	complete bool
}

// workerConn is one live control connection; a background reader routes
// worker replies and flags death.
type workerConn struct {
	k        int
	conn     net.Conn
	replies  chan collector.Frame
	dead     chan struct{}
	deadOnce sync.Once
	err      error
}

func (wc *workerConn) markDead(err error) {
	wc.deadOnce.Do(func() {
		wc.err = err
		close(wc.dead)
		wc.conn.Close()
	})
}

func (wc *workerConn) isDead() bool {
	select {
	case <-wc.dead:
		return true
	default:
		return false
	}
}

// await returns the next routed reply of the wanted type.
func (wc *workerConn) await(want collector.MsgType, timeout time.Duration) (collector.Frame, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case f := <-wc.replies:
		if f.Type != want {
			err := fmt.Errorf("shardnet: shard %d answered type %d, want %d", wc.k, byte(f.Type), byte(want))
			wc.markDead(err)
			return collector.Frame{}, err
		}
		return f, nil
	case <-wc.dead:
		return collector.Frame{}, fmt.Errorf("shardnet: shard %d connection lost: %w", wc.k, wc.err)
	case <-deadline.C:
		err := fmt.Errorf("shardnet: shard %d reply timeout", wc.k)
		wc.markDead(err)
		return collector.Frame{}, err
	}
}

// awaitDone reads a command acknowledgement and surfaces worker-side
// failures.
func (wc *workerConn) awaitDone(timeout time.Duration) error {
	f, err := wc.await(MsgShardDone, timeout)
	if err != nil {
		return err
	}
	var d doneMsg
	if err := decodeGob(f.Payload, &d); err != nil {
		wc.markDead(err)
		return err
	}
	if d.Err != "" {
		err := fmt.Errorf("shardnet: shard %d: %s", wc.k, d.Err)
		wc.markDead(err)
		return err
	}
	return nil
}

// stream returns the reader over a chunked reply of the wanted type, so
// the reply is decoded while its chunks arrive.
func (wc *workerConn) stream(want collector.MsgType, timeout time.Duration) *chunkReader {
	return &chunkReader{next: func() (collector.Frame, error) { return wc.await(want, timeout) }}
}

// New trains the pair graph, partitions it across the configured workers
// by rendezvous hashing, ships each worker its shard's models, and
// starts the outcome-return collector. It blocks until every worker has
// installed its state and persisted the epoch-zero checkpoint.
func New(history *timeseries.Dataset, cfg Config) (*Coordinator, error) {
	n := len(cfg.Workers)
	if n < 1 {
		return nil, errors.New("shardnet: at least one worker address required")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	if cfg.RebalanceFactor <= 1 {
		cfg.RebalanceFactor = 1.5
	}

	// Train every shard's subset locally — the same keepFor partition the
	// in-process fabric uses — then stream each to its worker and release
	// the local copies; from then on the workers own the live models.
	mgrs := make([]*manager.Manager, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			keep := func(p manager.Pair) bool {
				if shard.Assign(p.String(), n) != k {
					return false
				}
				return cfg.Keep == nil || cfg.Keep(p)
			}
			mgrs[k], errs[k] = manager.NewSubset(history, cfg.Manager, keep)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			for _, m := range mgrs {
				if m != nil {
					m.Close()
				}
			}
			return nil, fmt.Errorf("shardnet: train shard %d: %w", k, err)
		}
	}

	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:         cfg,
		log:         cfg.Logger.With("component", "shardnet"),
		runID:       hex.EncodeToString(idb[:]),
		ids:         mgrs[0].IDs(),
		agg:         manager.NewAggregator(mgrs[0].IDs(), cfg.Manager),
		owner:       make(map[manager.Pair]int),
		conns:       make([]*workerConn, n),
		lastDial:    make([]time.Time, n),
		baseState:   mgrs,
		pendInstall: make(map[manager.Pair]pendingModel),
		notify:      make(chan struct{}, 1),
		applied:     make([]uint64, n),
		lat:         make([]float64, n),
		latSet:      make([]bool, n),
		latGauges:   make([]*obs.Gauge, n),
	}
	for k, m := range mgrs {
		for _, p := range m.Pairs() {
			c.owner[p] = k
		}
	}
	for k := range c.latGauges {
		c.latGauges[k] = obsShardLatency.With(strconv.Itoa(k))
	}
	c.rebuild()

	srv, err := collector.NewServerWithLogger(&outcomeSink{c: c}, cfg.Logger)
	if err != nil {
		c.Close()
		return nil, err
	}
	srv.SetFlow(collector.FlowConfig{})
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addr, err := srv.Listen(listen)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("shardnet: outcome listener: %w", err)
	}
	c.srv = srv
	c.retAddr = advertiseAddr(addr, cfg.Advertise)

	// Connect every worker; allow a grace window for processes still
	// starting up.
	deadline := time.Now().Add(handshakeTimeout)
	for k := 0; k < n; k++ {
		for {
			if err := c.connectLocked(k); err == nil {
				break
			} else if time.Now().After(deadline) {
				c.Close()
				return nil, fmt.Errorf("shardnet: worker %d (%s): %w", k, cfg.Workers[k], err)
			}
			time.Sleep(redialInterval)
		}
	}
	// Every worker holds an epoch-zero checkpoint now; the trained copies
	// are no longer needed.
	c.releaseBase()
	obsWorkerCount.Set(float64(n))
	return c, nil
}

// releaseBase drops the locally trained shard managers (and their worker
// pools). Callers hold c.mu or are constructing the coordinator.
func (c *Coordinator) releaseBase() {
	for _, m := range c.baseState {
		m.Close()
	}
	c.baseState = nil
}

// advertiseAddr resolves the outcome address announced to workers: an
// explicit override wins; an unspecified listen host is rewritten to
// loopback, which is correct for same-host workers.
func advertiseAddr(addr net.Addr, override string) string {
	if override != "" {
		return override
	}
	s := addr.String()
	if host, port, err := net.SplitHostPort(s); err == nil {
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			return net.JoinHostPort("127.0.0.1", port)
		}
	}
	return s
}

// rebuild recomputes the canonical global pair order and the per-shard
// scatter tables from the current ownership plan. Callers hold c.mu (or
// are constructing the coordinator).
func (c *Coordinator) rebuild() {
	n := len(c.cfg.Workers)
	pairs := make([]manager.Pair, 0, len(c.owner))
	for p := range c.owner {
		pairs = append(pairs, p)
	}
	manager.SortPairs(pairs)
	pairIdx := manager.BuildPairIndex(c.ids, pairs)
	localPairs := make([][]manager.Pair, n)
	localIdx := make([][]int, n)
	for i, p := range pairs {
		k := c.owner[p]
		localPairs[k] = append(localPairs[k], p)
		localIdx[k] = append(localIdx[k], i)
	}
	c.pmu.Lock()
	c.pairs = pairs
	c.pairIdx = pairIdx
	c.outcomes = make([]manager.Outcome, len(pairs))
	c.localPairs = localPairs
	c.localIdx = localIdx
	c.pmu.Unlock()
}

// ringCap bounds the replay ring: enough rows to re-feed any worker
// whose last checkpoint is at most one cadence old, plus slack.
func (c *Coordinator) ringCap() int { return 4*c.cfg.CheckpointEvery + 64 }

// ringState is the bounded replay buffer; ringBase is the sequence of
// frames[0].
type ringState struct {
	frames   [][]byte
	ringBase uint64
}

// push appends a row frame, evicting the oldest past cap.
func (r *ringState) push(seq uint64, frame []byte, capRows int) {
	if len(r.frames) == 0 {
		r.ringBase = seq
	}
	r.frames = append(r.frames, frame)
	if len(r.frames) > capRows {
		drop := len(r.frames) - capRows
		r.frames = append(r.frames[:0], r.frames[drop:]...)
		r.ringBase += uint64(drop)
	}
}

// connectLocked dials worker k, reconciles its recovered state against
// the current plan, and replays any rows it missed. Callers hold c.mu.
func (c *Coordinator) connectLocked(k int) error {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.Dial("tcp", c.cfg.Workers[k])
	if err != nil {
		return err
	}
	wc := &workerConn{k: k, conn: conn, replies: make(chan collector.Frame, 8), dead: make(chan struct{})}
	go c.readLoop(wc)

	fail := func(err error) error {
		wc.markDead(err)
		return err
	}
	assign := assignMsg{
		RunID:           c.runID,
		K:               k,
		N:               len(c.cfg.Workers),
		PlanVersion:     c.planVersion,
		ReturnAddr:      c.retAddr,
		CheckpointEvery: c.cfg.CheckpointEvery,
		IDs:             c.ids,
		Pairs:           c.localPairs[k],
	}
	if err := writeGob(conn, MsgShardAssign, assign); err != nil {
		return fail(err)
	}
	ready, err := c.awaitReady(wc)
	if err != nil {
		return err
	}
	if !ready.HaveState {
		if c.baseState == nil {
			return fail(fmt.Errorf("shardnet: shard %d lost all state after streaming began", k))
		}
		if err := sendStream(conn, MsgShardState, c.baseState[k].Save); err != nil {
			return fail(err)
		}
		if ready, err = c.awaitReady(wc); err != nil {
			return err
		}
		if !ready.HaveState {
			return fail(fmt.Errorf("shardnet: shard %d rejected state transfer", k))
		}
	}

	// Reconcile ownership: a crash mid-migration can leave a worker with
	// models it no longer owns (pruned here) or without models the plan
	// says it holds (re-installed from the migration buffer).
	extras, missing := diffPairs(ready.Pairs, c.localPairs[k])
	if len(extras) > 0 {
		if err := writeGob(conn, MsgShardPrune, pruneMsg{PlanVersion: c.planVersion, Pairs: extras}); err != nil {
			return fail(err)
		}
		if err := wc.awaitDone(handshakeTimeout); err != nil {
			return err
		}
	}
	if len(missing) > 0 {
		for _, p := range missing {
			if pend, ok := c.pendInstall[p]; !ok || pend.owner != k {
				return fail(fmt.Errorf("shardnet: shard %d is missing pair %s with no migration copy", k, p))
			}
		}
		if err := c.sendInstall(conn, installMsg{PlanVersion: c.planVersion, Pairs: missing}); err != nil {
			return fail(err)
		}
		if err := wc.awaitDone(handshakeTimeout); err != nil {
			return err
		}
	}

	// Replay the rows the worker has not acked yet.
	if ready.AppliedSeq > c.seq {
		return fail(fmt.Errorf("shardnet: shard %d is ahead of the coordinator (%d > %d)", k, ready.AppliedSeq, c.seq))
	}
	if replay := c.seq - ready.AppliedSeq; replay > 0 {
		first := ready.AppliedSeq + 1
		if first < c.ring.ringBase {
			return fail(fmt.Errorf("shardnet: shard %d checkpoint too old to replay (needs row %d, ring starts at %d)", k, first, c.ring.ringBase))
		}
		for s := first; s <= c.seq; s++ {
			frame := c.ring.frames[s-c.ring.ringBase]
			if err := collector.WriteFrame(conn, collector.Frame{Type: MsgShardRow, Payload: frame}); err != nil {
				return fail(err)
			}
		}
		obsReplayedRows.Add(uint64(replay))
	}

	if old := c.conns[k]; old != nil {
		old.markDead(errors.New("superseded"))
		obsReconnects.Add(1)
	}
	c.conns[k] = wc
	c.pmu.Lock()
	// A restarted worker reverts to its checkpoint; rows between the
	// checkpoint and the merge floor will be re-delivered and must pass
	// the exactly-once filter again from the worker's applied position.
	if ready.AppliedSeq < c.applied[k] {
		c.applied[k] = ready.AppliedSeq
	}
	c.pmu.Unlock()
	c.updateConnected()
	return nil
}

// awaitReady reads a readyMsg reply.
func (c *Coordinator) awaitReady(wc *workerConn) (readyMsg, error) {
	f, err := wc.await(MsgShardReady, handshakeTimeout)
	if err != nil {
		return readyMsg{}, err
	}
	var ready readyMsg
	if err := decodeGob(f.Payload, &ready); err != nil {
		wc.markDead(err)
		return readyMsg{}, err
	}
	return ready, nil
}

// readLoop routes worker replies until the connection dies.
func (c *Coordinator) readLoop(wc *workerConn) {
	for {
		f, err := collector.ReadFrame(wc.conn)
		if err != nil {
			wc.markDead(err)
			c.wake()
			return
		}
		select {
		case wc.replies <- f:
		case <-wc.dead:
			return
		}
	}
}

// wake nudges a Step blocked in awaitOutcomes.
func (c *Coordinator) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// sendInstall streams an install command: the header, then the migration
// copy of every pair it names. Callers hold c.mu.
func (c *Coordinator) sendInstall(conn net.Conn, m installMsg) error {
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&m); err != nil {
		return err
	}
	return sendStream(conn, MsgShardInstall, func(cw io.Writer) error {
		rw := wal.NewRecordWriter(cw)
		if err := rw.WriteBlob(hdr.Bytes()); err != nil {
			return err
		}
		for _, p := range m.Pairs {
			if err := c.pendInstall[p].model.Save(rw); err != nil {
				return err
			}
		}
		return nil
	})
}

// diffPairs splits have into (extras not in want, missing from have).
// Both inputs are canonically sorted.
func diffPairs(have, want []manager.Pair) (extras, missing []manager.Pair) {
	i, j := 0, 0
	for i < len(have) && j < len(want) {
		switch {
		case have[i] == want[j]:
			i++
			j++
		case have[i].Less(want[j]):
			extras = append(extras, have[i])
			i++
		default:
			missing = append(missing, want[j])
			j++
		}
	}
	extras = append(extras, have[i:]...)
	missing = append(missing, want[j:]...)
	return extras, missing
}

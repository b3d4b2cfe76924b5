package shardnet

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// Tunables for the coordinator's control plane.
const (
	defaultCheckpointEvery = 240
	dialTimeout            = 500 * time.Millisecond
	// handshakeTimeout bounds the wait for any one reply frame — a ready,
	// a done or a row's outcomes — as a read deadline.
	handshakeTimeout = 30 * time.Second
	redialInterval   = 150 * time.Millisecond
	latencyAlpha     = 0.2
)

// Config configures a networked shard coordinator.
type Config struct {
	// Workers lists the control addresses of the shard worker processes;
	// position is the shard index. Required, at least one, and no address
	// twice: one worker serves one shard. The coordinator dials them and
	// needs no listener of its own.
	Workers []string
	// Manager is the fleet configuration, exactly as for one Manager.
	Manager manager.Config
	// CheckpointEvery is the worker checkpoint cadence in rows
	// (default 240). The replay ring retains 4×CheckpointEvery+64 rows,
	// so any worker whose checkpoint is at most that far behind recovers
	// without retraining.
	CheckpointEvery int
	// Logger receives diagnostics; nil discards them.
	Logger *obs.Logger
}

// Coordinator drives shard workers over the network while keeping the
// authoritative Aggregator — and therefore the merged Q^a/Q trajectory — in
// this process. Every row is one round: fan the row out to every worker,
// scatter their per-pair outcomes into one slice in the global canonical
// pair order, and fold that slice through the Aggregator — the code, and
// the float addition order, of an unsharded Manager.Step, so the reports
// are bit-identical to one manager's for any worker count. The embedded
// Aggregator's running means, localization and drill-down, and MapRows'
// Step(Row), are the coordinator's own methods. Which worker owns
// which pair is fixed at New for the coordinator's lifetime.
type Coordinator struct {
	*manager.Aggregator
	*manager.MapRows

	cfg   Config
	log   *obs.Logger
	runID string
	ids   []timeseries.MeasurementID // a row frame's, and the assign's, measurement order

	// Fixed at New, like the partition they are derived from.
	pairs   []manager.Pair // global canonical pair order
	pairIdx [][2]int       // pairs[i] → indices into ids

	// mu is the step/control lock: Step, reconnection and Close
	// serialize on it. Step holds it for a whole
	// round, so one row is in flight per fabric and every exchange on a
	// control connection is request/response.
	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup    // the round's fan-out; rounds never overlap
	outcomes []manager.Outcome // the round's scatter buffer, in pairs order
	// seq is the last row fanned out and merged the last row aggregated;
	// they differ only inside a round, by the row in flight.
	seq, merged uint64
	sent        time.Time // start of row seq's fan-out, the latency EWMAs' origin
	conns       []*workerConn
	baseState   []*manager.Manager // trained shards awaiting hand-off; nil once streaming began
	lat         []float64
	latSet      []bool
	latGauges   []*obs.Gauge
	ring        ringState
}

// workerConn is worker k's end of the fabric: its control connection and
// the pairs the partition assigns it. The protocol is request/response, so
// a failed or timed-out exchange leaves nothing to resynchronise on: send
// and read close the connection on any error, and reviveLocked redials,
// re-handshakes and replays.
type workerConn struct {
	c     *Coordinator
	k     int
	conn  net.Conn      // nil until first dialed
	r     *bufio.Reader // the one reader of conn, replaced with it on a redial
	dead  bool
	pairs []manager.Pair // canonical order
	idx   []int          // pairs[i]'s index in the coordinator's outcomes
}

// fail closes the connection and hands err back.
func (wc *workerConn) fail(err error) error {
	if !wc.dead {
		wc.dead = true
		wc.conn.Close()
	}
	return err
}

// send writes one frame.
func (wc *workerConn) send(msgType collector.MsgType, payload []byte) error {
	if err := collector.WriteFrame(wc.conn, collector.Frame{Type: msgType, Payload: payload}); err != nil {
		return wc.fail(err)
	}
	return nil
}

// sendGob writes one gob-encoded control message (the assign).
func (wc *workerConn) sendGob(msgType collector.MsgType, v any) error {
	if err := writeGob(wc.conn, msgType, v); err != nil {
		return wc.fail(err)
	}
	return nil
}

// read returns the worker's next frame, which must arrive within
// handshakeTimeout and be of the wanted type.
func (wc *workerConn) read(want collector.MsgType) (collector.Frame, error) {
	_ = wc.conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) // fails only on a closed connection, which the read reports
	f, err := collector.ReadFrame(wc.r)
	if err == nil && f.Type != want {
		err = fmt.Errorf("shardnet: shard %d answered type %d, want %d", wc.k, byte(f.Type), byte(want))
	}
	if err != nil {
		return collector.Frame{}, wc.fail(err)
	}
	return f, nil
}

// readGob reads a reply of the wanted type and decodes it into v.
func (wc *workerConn) readGob(want collector.MsgType, v any) error {
	f, err := wc.read(want)
	if err != nil {
		return err
	}
	if err := decodeGob(f.Payload, v); err != nil {
		return wc.fail(err)
	}
	return nil
}

// errNoWorker marks a failed dial: nothing is listening yet, which New
// waits out; a worker that answers and then refuses the handshake is not.
var errNoWorker = errors.New("shardnet: worker unreachable")

// New trains the pair graph, partitions it across the configured workers
// by rendezvous hashing, and ships each worker its shard's models over
// the control connection it dials. It blocks until every worker has
// installed its state and persisted the epoch-zero checkpoint.
func New(history *timeseries.Dataset, cfg Config) (*Coordinator, error) {
	n := len(cfg.Workers)
	if n < 1 {
		return nil, errors.New("shardnet: at least one worker address required")
	}
	for k, addr := range cfg.Workers {
		if j := slices.Index(cfg.Workers[:k], addr); j >= 0 {
			return nil, fmt.Errorf("shardnet: workers %d and %d are both %s: a worker serves one shard", j, k, addr)
		}
	}
	if l := len(history.IDs()); l > maxMeasurements {
		return nil, fmt.Errorf("shardnet: %d measurements, a row frame addresses at most %d", l, maxMeasurements)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}

	// Train every shard's subset locally, then stream each to its worker
	// and release the local copies; from then on the workers own the live
	// models.
	mgrs, err := train(history, n, cfg.Manager)
	if err != nil {
		return nil, fmt.Errorf("shardnet: %w", err)
	}

	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, err
	}
	local := make([][]manager.Pair, n)
	for k, m := range mgrs {
		local[k] = m.Pairs()
	}
	pairs, localIdx := scatter(local)
	ids := mgrs[0].IDs()
	c := &Coordinator{
		Aggregator: manager.NewAggregator(ids, cfg.Manager),
		cfg:        cfg,
		log:        cfg.Logger.With("component", "shardnet"),
		runID:      hex.EncodeToString(idb[:]),
		ids:        ids,
		pairs:      pairs,
		pairIdx:    manager.BuildPairIndex(ids, pairs),
		outcomes:   make([]manager.Outcome, len(pairs)),
		conns:      make([]*workerConn, n),
		baseState:  mgrs,
		lat:        make([]float64, n),
		latSet:     make([]bool, n),
		latGauges:  make([]*obs.Gauge, n),
	}
	c.MapRows = manager.NewMapRows(ids, c.StepValues)
	for k := range mgrs {
		c.conns[k] = &workerConn{c: c, k: k, dead: true, pairs: local[k], idx: localIdx[k]}
		c.latGauges[k] = obsShardLatency.With(strconv.Itoa(k))
	}

	// Connect every worker; allow a grace window for processes still
	// starting up.
	deadline := time.Now().Add(handshakeTimeout)
	for k := 0; k < n; k++ {
		for {
			err := c.connectLocked(k)
			if err == nil {
				break
			}
			if !errors.Is(err, errNoWorker) || time.Now().After(deadline) {
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

// ringCap bounds the replay ring: enough rows to re-feed any worker
// whose last checkpoint is at most one cadence old, plus slack.
func (c *Coordinator) ringCap() int { return 4*c.cfg.CheckpointEvery + 64 }

// ringState is the bounded replay buffer; ringBase is the sequence of
// frames[0].
type ringState struct {
	frames   [][]byte
	ringBase uint64
}

// at returns row seq's frame; seq is within the ring.
func (r *ringState) at(seq uint64) []byte { return r.frames[seq-r.ringBase] }

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

// connectLocked dials worker k, checks its recovered state against its
// shard, and replays any rows it missed — inside Step, that includes
// collecting the row in flight. Callers hold c.mu.
func (c *Coordinator) connectLocked(k int) error {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.Dial("tcp", c.cfg.Workers[k])
	if err != nil {
		return fmt.Errorf("%w: %v", errNoWorker, err)
	}
	wc := c.conns[k]
	redial := wc.conn != nil
	wc.conn, wc.r, wc.dead = conn, bufio.NewReaderSize(conn, readBuffer), false
	if err := c.handshakeLocked(wc); err != nil {
		return wc.fail(fmt.Errorf("shardnet: shard %d handshake: %w", k, err))
	}
	if redial {
		obsReconnects.Add(1)
	}
	c.updateConnected()
	return nil
}

// handshakeLocked runs the session opening on a fresh connection: assign,
// state transfer if the worker has none, the pair-set check, replay.
func (c *Coordinator) handshakeLocked(wc *workerConn) error {
	k := wc.k
	assign := assignMsg{
		RunID:           c.runID,
		K:               k,
		N:               len(c.cfg.Workers),
		CheckpointEvery: c.cfg.CheckpointEvery,
		IDs:             c.ids,
		Pairs:           wc.pairs,
	}
	if err := wc.sendGob(MsgShardAssign, assign); err != nil {
		return err
	}
	var ready readyMsg
	if err := wc.readGob(MsgShardReady, &ready); err != nil {
		return fmt.Errorf("assign refused (mcdetect and mcshard must come from the same build): %w", err)
	}
	if ready.Err != "" {
		return errors.New(ready.Err)
	}
	if !ready.HaveState {
		if c.baseState == nil {
			return errors.New("lost all state after streaming began")
		}
		if err := sendStream(wc.conn, c.baseState[k].Save); err != nil {
			return err
		}
		if err := wc.readGob(MsgShardReady, &ready); err != nil {
			return err
		}
		if !ready.HaveState {
			return errors.New("rejected state transfer")
		}
	}

	// Ownership never changes after New, so a worker holding any other pair
	// set recovered a checkpoint that is not this fleet's partition.
	if !slices.Equal(ready.Pairs, wc.pairs) {
		return fmt.Errorf("worker's pair set (%d pairs) is not the one its assign names (%d pairs)", len(ready.Pairs), len(wc.pairs))
	}

	// Replay the rows the worker does not know were merged, one exchange
	// at a time: the worker answers every row, and rows and answers share
	// this one connection, so a ring written ahead of its answers would
	// fill both socket buffers and stop.
	if ready.AppliedSeq > c.seq {
		return fmt.Errorf("ahead of the coordinator (%d > %d)", ready.AppliedSeq, c.seq)
	}
	first := ready.AppliedSeq + 1
	if first <= c.seq && first < c.ring.ringBase {
		return fmt.Errorf("checkpoint too old to replay (needs row %d, ring starts at %d)", first, c.ring.ringBase)
	}
	for s := first; s <= c.seq; s++ {
		if err := wc.send(MsgShardRow, c.ring.at(s)); err != nil {
			return err
		}
		if err := c.readOutcomes(wc, s); err != nil {
			return err
		}
	}
	obsReplayedRows.Add(c.seq - ready.AppliedSeq)
	return nil
}

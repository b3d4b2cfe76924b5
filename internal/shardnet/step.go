package shardnet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
	"mcorr/internal/wal"
)

// Step fans one synchronized row out to every worker, waits for all
// shards' outcome sets through the exactly-once return path, and merges
// them through the authoritative Aggregator — the same Aggregate call,
// in the same canonical pair order, as the in-process fabric, which is
// what keeps the trajectory bit-identical. A worker that dies mid-row is
// redialed and replayed from the ring; Step blocks until every shard's
// outcome for this row has arrived.
func (c *Coordinator) Step(row manager.Row) manager.StepReport {
	start := time.Now()
	sp := obs.StartSpan("shardnet.step")
	c.mu.Lock()
	defer c.mu.Unlock()

	sp.Phase("broadcast")
	c.seq++
	frame := encodeRowFrame(c.seq, row, c.ids)
	c.ring.push(c.seq, frame, c.ringCap())
	c.pmu.Lock()
	c.resetCollectLocked(c.seq)
	c.pmu.Unlock()
	for _, wc := range c.conns {
		if wc == nil || wc.isDead() {
			continue
		}
		if err := collector.WriteFrame(wc.conn, collector.Frame{Type: MsgShardRow, Payload: frame}); err != nil {
			wc.markDead(err)
		}
	}

	sp.Phase("score")
	c.awaitOutcomesLocked()

	sp.Phase("aggregate")
	report := c.agg.Aggregate(row.Time, c.pairs, c.pairIdx, c.outcomes, sp)
	sp.End()
	obsRows.Add(1)
	obsStepSeconds.Observe(time.Since(start).Seconds())

	if c.cfg.RebalanceEvery > 0 && c.seq%uint64(c.cfg.RebalanceEvery) == 0 {
		c.autoRebalanceLocked()
	}
	return report
}

// resetCollectLocked arms outcome collection for seq. Callers hold both
// c.mu and c.pmu.
func (c *Coordinator) resetCollectLocked(seq uint64) {
	n := len(c.cfg.Workers)
	if c.collect.got == nil {
		c.collect.got = make([]bool, n)
		c.collect.received = make([]int, n)
		c.collect.seen = make([]map[int]bool, n)
	}
	c.collect.seq = seq
	c.collect.pv = c.planVersion
	c.collect.t0 = time.Now()
	c.collect.complete = false
	for k := 0; k < n; k++ {
		c.collect.got[k] = false
		c.collect.received[k] = 0
		c.collect.seen[k] = nil
	}
}

// awaitOutcomesLocked blocks until every shard's outcome set for the
// current row has been scattered, redialing dead workers as needed.
// Callers hold c.mu.
func (c *Coordinator) awaitOutcomesLocked() {
	for {
		c.pmu.Lock()
		done := c.collect.complete
		c.pmu.Unlock()
		if done {
			return
		}
		c.reviveLocked()
		select {
		case <-c.notify:
		case <-time.After(awaitTick):
		}
	}
}

// reviveLocked redials any dead worker connection, rate-limited per
// shard. Callers hold c.mu.
func (c *Coordinator) reviveLocked() {
	for k, wc := range c.conns {
		if wc != nil && !wc.isDead() {
			continue
		}
		if time.Since(c.lastDial[k]) < redialInterval {
			continue
		}
		c.lastDial[k] = time.Now()
		if err := c.connectLocked(k); err != nil {
			c.log.Info("worker redial failed", "shard", k, "err", err)
			continue
		}
		obsReconnects.Add(1)
		c.log.Info("worker reconnected", "shard", k, "seq", c.seq)
	}
	c.updateConnected()
}

// updateConnected refreshes the live-connection gauge.
func (c *Coordinator) updateConnected() {
	live := 0
	for _, wc := range c.conns {
		if wc != nil && !wc.isDead() {
			live++
		}
	}
	obsConnected.Set(float64(live))
}

// outcomeSink receives worker outcome batches from the collector server.
// Each sample carries one packed chunk; the sink deduplicates retries by
// (shard, sequence), discards stale plan versions, scatters outcomes
// into the coordinator's global buffer at the shard's plan indices, and
// wakes the blocked Step when the row is complete. Returning nil acks
// the batch, which is what lets the workers' ReliableAgents retire their
// buffers — the exactly-once contract lives here.
type outcomeSink struct {
	c *Coordinator
}

// AppendBatch implements collector.Sink.
func (s *outcomeSink) AppendBatch(batch []tsdb.Sample) error {
	c := s.c
	var ch outcomeChunk
	for _, sample := range batch {
		k, ok := shardOf(sample.ID.Machine)
		if !ok || k >= len(c.applied) {
			obsStaleOutcomes.Add(1)
			continue
		}
		seq := uint64(sample.Value)
		c.pmu.Lock()
		switch {
		case seq <= c.applied[k]:
			// A retry of an already-merged row: ack and drop.
			obsDupOutcomes.Add(1)
		case c.collect.complete || seq != c.collect.seq:
			// Not the row being collected; only retries can land here.
			obsDupOutcomes.Add(1)
		default:
			if err := unpackOutcomes(sample.ID.Metric, &ch); err != nil {
				// Ack malformed chunks anyway: returning an error would make
				// the worker's ReliableAgent retry the same poison payload
				// forever, wedging the fabric.
				obsStaleOutcomes.Add(1)
				c.log.Info("dropping malformed outcome chunk", "shard", k, "err", err)
			} else {
				s.mergeLocked(k, seq, &ch)
			}
		}
		c.pmu.Unlock()
	}
	return nil
}

// mergeLocked folds one validated chunk into the collection state.
// Callers hold c.pmu.
func (s *outcomeSink) mergeLocked(k int, seq uint64, ch *outcomeChunk) {
	c := s.c
	if ch.PlanVersion != c.collect.pv {
		obsStaleOutcomes.Add(1)
		return
	}
	if ch.Total != len(c.localIdx[k]) {
		obsStaleOutcomes.Add(1)
		return
	}
	if c.collect.seen[k] == nil {
		c.collect.seen[k] = make(map[int]bool, 1)
	}
	if c.collect.seen[k][ch.Offset] {
		obsDupOutcomes.Add(1)
		return
	}
	c.collect.seen[k][ch.Offset] = true
	idx := c.localIdx[k]
	for i, o := range ch.Outcomes {
		c.outcomes[idx[ch.Offset+i]] = o
	}
	c.collect.received[k] += len(ch.Outcomes)
	if !c.collect.got[k] && c.collect.received[k] >= ch.Total {
		c.collect.got[k] = true
		c.applied[k] = seq
		dt := time.Since(c.collect.t0).Seconds()
		if c.latSet[k] {
			c.lat[k] += latencyAlpha * (dt - c.lat[k])
		} else {
			c.lat[k] = dt
			c.latSet[k] = true
		}
		c.latGauges[k].Set(c.lat[k])
		all := true
		for _, g := range c.collect.got {
			if !g {
				all = false
				break
			}
		}
		if all {
			c.collect.complete = true
			c.wake()
		}
	}
}

// shardOf parses a worker outcome machine label ("shard-<k>").
func shardOf(machine string) (int, bool) {
	rest, ok := strings.CutPrefix(machine, "shard-")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}

// Rebalance migrates n pairs from one worker to another without
// retraining: the donor's models are extracted over the control channel,
// installed (and checkpointed) on the recipient, and only then does the
// plan flip and the donor prune — a crash at any point leaves every
// model owned by exactly one shard after the next handshake
// reconciliation. The step lock guarantees no row is in flight.
func (c *Coordinator) Rebalance(from, to, n int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebalanceLocked(from, to, n)
}

func (c *Coordinator) rebalanceLocked(from, to, n int) (int, error) {
	w := len(c.cfg.Workers)
	if from < 0 || from >= w || to < 0 || to >= w || from == to {
		return 0, fmt.Errorf("shardnet: invalid rebalance %d -> %d", from, to)
	}
	avail := c.localPairs[from]
	if n > len(avail)-1 {
		n = len(avail) - 1
	}
	if n <= 0 {
		return 0, nil
	}
	donor, recip := c.conns[from], c.conns[to]
	if donor == nil || donor.isDead() || recip == nil || recip.isDead() {
		return 0, fmt.Errorf("shardnet: rebalance %d -> %d: worker unavailable", from, to)
	}
	moving := avail[len(avail)-n:]
	newPV := c.planVersion + 1

	// Phase 1 — copy: extract without removing, install on the recipient.
	if err := writeGob(donor.conn, MsgShardExtract, extractMsg{Pairs: moving}); err != nil {
		donor.markDead(err)
		return 0, err
	}
	// The donor answers with one model per pair, in request order; each is
	// decoded as its chunks arrive and held until the recipient confirms.
	cr := donor.stream(MsgShardModels, handshakeTimeout)
	rr := wal.NewRecordReader(cr)
	for i, p := range moving {
		model, err := core.LoadModel(rr)
		if err != nil {
			donor.markDead(err)
			c.clearPending(moving[:i])
			return 0, fmt.Errorf("shardnet: extract %s from shard %d: %w", p, from, err)
		}
		c.pendInstall[p] = pendingModel{owner: to, model: model}
	}
	if err := cr.finish(); err != nil {
		donor.markDead(err)
		c.clearPending(moving)
		return 0, err
	}
	if err := c.sendInstall(recip.conn, installMsg{PlanVersion: newPV, Pairs: moving}); err != nil {
		recip.markDead(err)
		c.clearPending(moving)
		return 0, err
	}
	if err := recip.awaitDone(handshakeTimeout); err != nil {
		// The recipient may still have installed and checkpointed; keep
		// the pending copies so its handshake can reconcile either way.
		return 0, err
	}

	// Phase 2 — commit: the recipient has checkpointed the models, so
	// flip ownership, prune the donor and fan the new plan out.
	for _, p := range moving {
		c.owner[p] = to
	}
	c.planVersion = newPV
	c.rebuild()
	c.clearPending(moving)
	if err := writeGob(donor.conn, MsgShardPrune, pruneMsg{PlanVersion: newPV, Pairs: moving}); err == nil {
		if err := donor.awaitDone(handshakeTimeout); err != nil {
			c.log.Info("donor prune unacknowledged; handshake will reconcile", "shard", from, "err", err)
		}
	} else {
		donor.markDead(err)
	}
	for k, wc := range c.conns {
		if k == from || k == to || wc == nil || wc.isDead() {
			continue
		}
		if err := writeGob(wc.conn, MsgShardPlan, planMsg{PlanVersion: newPV}); err != nil {
			wc.markDead(err)
			continue
		}
		if err := wc.awaitDone(handshakeTimeout); err != nil {
			c.log.Info("plan fan-out unacknowledged; handshake will reconcile", "shard", k, "err", err)
		}
	}
	obsRebalances.Add(1)
	obsPairsStolen.Add(uint64(n))
	c.log.Info("rebalanced", "moved", n, "from", from, "to", to, "plan", newPV)
	return n, nil
}

// clearPending drops migration copies once their recipient has durably
// confirmed them (or the migration was abandoned before install).
func (c *Coordinator) clearPending(pairs []manager.Pair) {
	for _, p := range pairs {
		delete(c.pendInstall, p)
	}
}

// autoRebalanceLocked is the work-stealing policy: when the slowest
// shard's round-trip EWMA exceeds the fastest's by the configured
// factor, a quarter of the slow shard's pairs migrate to the fast one.
// Callers hold c.mu.
func (c *Coordinator) autoRebalanceLocked() {
	slow, fast := -1, -1
	for k := range c.lat {
		if !c.latSet[k] {
			return // not enough signal yet
		}
		if slow == -1 || c.lat[k] > c.lat[slow] {
			slow = k
		}
		if fast == -1 || c.lat[k] < c.lat[fast] {
			fast = k
		}
	}
	if slow == fast || c.lat[slow] < c.cfg.RebalanceFactor*c.lat[fast] {
		return
	}
	n := len(c.localPairs[slow]) / 4
	if n == 0 {
		return
	}
	if _, err := c.rebalanceLocked(slow, fast, n); err != nil {
		c.log.Info("auto-rebalance failed", "err", err)
	}
}

// Latencies returns the per-shard round-trip EWMAs in seconds (zero for
// shards that have not reported yet).
func (c *Coordinator) Latencies() []float64 {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	out := make([]float64, len(c.lat))
	copy(out, c.lat)
	return out
}

// SetLatencyHint seeds a shard's round-trip EWMA, letting operators (and
// tests) steer the work-stealing policy before organic signal builds up.
func (c *Coordinator) SetLatencyHint(k int, seconds float64) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if k < 0 || k >= len(c.lat) {
		return
	}
	c.lat[k] = seconds
	c.latSet[k] = true
}

// Run replays a dataset through Step in time order, exactly like the
// in-process fleets.
func (c *Coordinator) Run(ds *timeseries.Dataset, from, to time.Time) ([]manager.StepReport, error) {
	rows, err := manager.BuildRows(ds, from, to)
	if err != nil {
		return nil, err
	}
	reports := make([]manager.StepReport, 0, len(rows))
	for _, row := range rows {
		reports = append(reports, c.Step(row))
	}
	return reports, nil
}

// IDs returns the monitored measurements.
func (c *Coordinator) IDs() []timeseries.MeasurementID { return c.agg.IDs() }

// Pairs returns every trained link in canonical order.
func (c *Coordinator) Pairs() []manager.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]manager.Pair, len(c.pairs))
	copy(out, c.pairs)
	return out
}

// NumShards returns the worker count.
func (c *Coordinator) NumShards() int { return len(c.cfg.Workers) }

// ShardPairs returns the pairs the current plan assigns to shard k.
func (c *Coordinator) ShardPairs(k int) []manager.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < 0 || k >= len(c.localPairs) {
		return nil
	}
	out := make([]manager.Pair, len(c.localPairs[k]))
	copy(out, c.localPairs[k])
	return out
}

// PlanVersion returns the current ownership-plan epoch.
func (c *Coordinator) PlanVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planVersion
}

// Steps counts rows that produced a system score.
func (c *Coordinator) Steps() int { return c.agg.Steps() }

// SystemMean is the running mean system fitness Q.
func (c *Coordinator) SystemMean() float64 { return c.agg.SystemMean() }

// MeasurementMeans is the running mean Q^a per measurement.
func (c *Coordinator) MeasurementMeans() map[timeseries.MeasurementID]float64 {
	return c.agg.MeasurementMeans()
}

// PairMeans returns the running mean fitness per link (requires
// Manager.TrackPairMeans).
func (c *Coordinator) PairMeans() map[manager.Pair]float64 { return c.agg.PairMeans() }

// WorstPairs returns the k weakest links by mean fitness.
func (c *Coordinator) WorstPairs(k int) []manager.PairScore { return c.agg.WorstPairs(k) }

// WorstPairDrops ranks links by drop against a healthy baseline.
func (c *Coordinator) WorstPairDrops(baseline map[manager.Pair]float64, k int) []manager.PairScore {
	return c.agg.WorstPairDrops(baseline, k)
}

// Localize ranks machines by mean fitness, worst first.
func (c *Coordinator) Localize() manager.Localization { return c.agg.Localize() }

// Aggregator exposes the authoritative aggregator (shared with the
// serving tier).
func (c *Coordinator) Aggregator() *manager.Aggregator { return c.agg }

// ResetAccumulators clears the running means.
func (c *Coordinator) ResetAccumulators() { c.agg.Reset() }

// SetAdaptive toggles online model updating on every connected worker.
// Workers that are down miss the toggle until their next restart with a
// fresh assign; toggle only while the fabric is healthy.
func (c *Coordinator) SetAdaptive(adaptive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broadcastLocked(MsgShardAdaptive, adaptive)
}

// ResetChains clears every model's Markov position on every connected
// worker.
func (c *Coordinator) ResetChains() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broadcastLocked(MsgShardResetChains, struct{}{})
}

// broadcastLocked sends one acknowledged control command to every live
// worker. Callers hold c.mu.
func (c *Coordinator) broadcastLocked(msgType collector.MsgType, v any) {
	for _, wc := range c.conns {
		if wc == nil || wc.isDead() {
			continue
		}
		if err := writeGob(wc.conn, msgType, v); err != nil {
			wc.markDead(err)
			continue
		}
		if err := wc.awaitDone(handshakeTimeout); err != nil {
			c.log.Info("broadcast unacknowledged", "type", byte(msgType), "shard", wc.k, "err", err)
		}
	}
}

// Close tears the fabric down: control connections, the outcome
// collector, and the latency gauges. Workers keep their checkpoints.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := c.conns
	c.releaseBase()
	c.mu.Unlock()
	for _, wc := range conns {
		if wc == nil {
			continue
		}
		_ = collector.WriteFrame(wc.conn, collector.Frame{Type: collector.MsgBye})
		wc.markDead(fmt.Errorf("shardnet: coordinator closed"))
	}
	if c.srv != nil {
		c.srv.Close()
	}
	obsConnected.Set(0)
}

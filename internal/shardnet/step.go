package shardnet

import (
	"fmt"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/wal"
)

// StepValues fans one synchronized row — vals in IDs() order, NaN for a
// gap, read only until the call returns — out to every worker and merges
// their outcomes through Fabric.Round, the in-process fabric's round:
// worker k's ScoreInto is one exchange on its control connection, reading
// its outcome set back into that shard's indices of the global slice. A
// worker that dies or stalls mid-row is redialed and replayed from the ring
// by the round's settle step, reviveLocked, so the aggregation waits until
// every shard's outcome for this row has arrived.
func (c *Coordinator) StepValues(t time.Time, vals []float64) manager.StepReport {
	start := time.Now()
	sp := obs.StartSpan("shardnet.step")
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(vals) != len(c.ids) {
		panic(fmt.Sprintf("shardnet: row of %d values for %d measurements", len(vals), len(c.ids)))
	}

	c.seq++
	c.ring.push(c.seq, encodeRowFrame(c.seq, t, vals), c.ringCap())
	c.sent = time.Now()
	report := c.Round(t, vals, sp)
	c.merged = c.seq
	sp.End()
	obsRows.Add(1)
	obsStepSeconds.Observe(time.Since(start).Seconds())

	if c.cfg.RebalanceEvery > 0 && c.seq%uint64(c.cfg.RebalanceEvery) == 0 {
		c.autoRebalanceLocked()
	}
	return report
}

// ScoreInto implements shard.Scorer with one exchange on the control
// connection: send the row in flight — it went into the ring, encoded once
// for every worker, before the round began — and read the answer. Each
// worker's runs on its own goroutine of the round, touching only its own
// connection, latency slot and scatter target. A failure has closed the
// connection, which reviveLocked then repairs, replaying the row.
func (wc *workerConn) ScoreInto(_ []float64, idx []int, dst []manager.Outcome) {
	wc.idx, wc.dst = idx, dst
	if wc.dead {
		return
	}
	c := wc.c
	err := wc.send(MsgShardRow, c.ring.at(c.seq))
	if err == nil {
		err = c.readOutcomes(wc, c.seq)
	}
	if err != nil {
		c.log.Info("worker connection lost", "shard", wc.k, "seq", c.seq, "err", err)
	}
}

// readOutcomes reads worker wc.k's answer to row seq — one frame, more
// only when the set exceeds the frame limit — validating every frame
// before it indexes anything. The answer to the row in flight is scattered
// where the Fabric asked for it; the answers to replayed rows already
// merged were merged before the connection was lost, so they are only
// drained and counted. Callers hold c.mu; a round runs one call per worker
// concurrently.
func (c *Coordinator) readOutcomes(wc *workerConn, seq uint64) error {
	idx := wc.idx
	for got := 0; ; {
		f, err := wc.read(MsgShardOutcomes)
		if err != nil {
			return err
		}
		h, err := decodeOutcomeFrame(f.Payload)
		switch {
		case err != nil:
		case h.Seq != seq:
			err = fmt.Errorf("shardnet: shard %d answered row %d with the outcomes of row %d", wc.k, seq, h.Seq)
		case seq <= c.merged:
			obsDupOutcomes.Add(1)
		case h.PlanVersion != c.planVersion || h.Total != len(idx):
			// One answer per row: a stale one cannot be followed by a
			// current one, so the exchange has failed.
			obsStaleOutcomes.Add(1)
			err = fmt.Errorf("shardnet: shard %d answered with %d outcomes under plan %d, want %d under plan %d",
				wc.k, h.Total, h.PlanVersion, len(idx), c.planVersion)
		case h.Offset != got:
			err = fmt.Errorf("shardnet: shard %d outcome frame at offset %d, want %d", wc.k, h.Offset, got)
		default:
			for i := 0; i < h.Count; i++ {
				wc.dst[idx[got+i]] = h.At(i)
			}
		}
		if err != nil {
			return wc.fail(err)
		}
		if got += h.Count; got >= h.Total {
			break
		}
	}
	if seq > c.merged {
		dt := time.Since(c.sent).Seconds()
		if c.latSet[wc.k] {
			c.lat[wc.k] += latencyAlpha * (dt - c.lat[wc.k])
		} else {
			c.lat[wc.k], c.latSet[wc.k] = dt, true
		}
		c.latGauges[wc.k].Set(c.lat[wc.k])
	}
	return nil
}

// reviveLocked redials every worker whose connection is gone until each
// is back: handshaken and replayed, which inside a round includes
// collecting the row in flight — so it runs before the round aggregates.
// Callers hold c.mu.
func (c *Coordinator) reviveLocked() {
	for {
		down := 0
		for k, wc := range c.conns {
			if !wc.dead {
				continue
			}
			if err := c.connectLocked(k); err != nil {
				c.log.Info("worker redial failed", "shard", k, "err", err)
				down++
				continue
			}
			c.log.Info("worker reconnected", "shard", k, "seq", c.seq)
		}
		if down == 0 {
			return
		}
		c.updateConnected()
		time.Sleep(redialInterval)
	}
}

// updateConnected refreshes the live-connection gauge.
func (c *Coordinator) updateConnected() {
	live := 0
	for _, wc := range c.conns {
		if !wc.dead {
			live++
		}
	}
	obsConnected.Set(float64(live))
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
	avail := c.conns[from].pairs
	if n > len(avail)-1 {
		n = len(avail) - 1
	}
	if n <= 0 {
		return 0, nil
	}
	donor, recip := c.conns[from], c.conns[to]
	if donor.dead || recip.dead {
		return 0, fmt.Errorf("shardnet: rebalance %d -> %d: worker unavailable", from, to)
	}
	moving := avail[len(avail)-n:]
	newPV := c.planVersion + 1

	// Phase 1 — copy: extract without removing, install on the recipient.
	if err := donor.sendGob(MsgShardExtract, extractMsg{Pairs: moving}); err != nil {
		return 0, err
	}
	// The donor answers with one model per pair, in request order; each is
	// decoded as its chunks arrive and held until the recipient confirms.
	cr := donor.stream(MsgShardModels)
	rr := wal.NewRecordReader(cr)
	for i, p := range moving {
		model, err := core.LoadModel(rr)
		if err != nil {
			c.clearPending(moving[:i])
			return 0, donor.fail(fmt.Errorf("shardnet: extract %s from shard %d: %w", p, from, err))
		}
		c.pendInstall[p] = pendingModel{owner: to, model: model}
	}
	if err := cr.finish(); err != nil {
		c.clearPending(moving)
		return 0, donor.fail(err)
	}
	if err := c.sendInstall(recip, installMsg{PlanVersion: newPV, Pairs: moving}); err != nil {
		c.clearPending(moving)
		return 0, err
	}
	if err := recip.readDone(); err != nil {
		// The recipient may still have installed and checkpointed; keep
		// the pending copies so its handshake can reconcile either way.
		return 0, err
	}

	// Phase 2 — commit: the recipient has checkpointed the models, so
	// flip ownership, prune the donor and fan the new plan out.
	keep := len(avail) - n
	donor.pairs = avail[:keep:keep]
	recip.pairs = append(append([]manager.Pair(nil), recip.pairs...), moving...)
	manager.SortPairs(recip.pairs)
	c.planVersion = newPV
	c.rebuild()
	c.clearPending(moving)
	c.commandLocked(donor, MsgShardPrune, pruneMsg{PlanVersion: newPV, Pairs: moving})
	for k, wc := range c.conns {
		if k != from && k != to {
			c.commandLocked(wc, MsgShardPlan, planMsg{PlanVersion: newPV})
		}
	}
	obsRebalances.Add(1)
	obsPairsStolen.Add(uint64(n))
	c.log.Info("rebalanced", "moved", n, "from", from, "to", to, "plan", newPV)
	return n, nil
}

// commandLocked runs one acknowledged command on a live worker and reports
// whether it was acknowledged. A worker that is down, or does not
// acknowledge, has lost its connection; its next handshake carries the
// current plan and reconciles pairs — all a rebalance needs, and not enough
// for modelCommandLocked. Callers hold c.mu.
func (c *Coordinator) commandLocked(wc *workerConn, msgType collector.MsgType, v any) bool {
	if wc.dead {
		return false
	}
	err := wc.sendGob(msgType, v)
	if err == nil {
		err = wc.readDone()
	}
	if err != nil {
		c.log.Info("command unacknowledged", "type", byte(msgType), "shard", wc.k, "err", err)
	}
	return err == nil
}

// modelCommandLocked runs a command that changes model state on every
// worker, and returns only once each has acknowledged it — having
// checkpointed it. No handshake carries such a change, so a worker that
// missed it would score on under the old state, silently: workers that are
// down are revived first, and one that fails mid-command is revived and
// asked again (both commands can be applied twice). Callers hold c.mu.
func (c *Coordinator) modelCommandLocked(msgType collector.MsgType, v any) {
	if c.closed {
		return
	}
	c.reviveLocked()
	for _, wc := range c.conns {
		for !c.commandLocked(wc, msgType, v) {
			c.reviveLocked()
		}
	}
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
	n := len(c.conns[slow].pairs) / 4
	if n == 0 {
		return
	}
	if _, err := c.rebalanceLocked(slow, fast, n); err != nil {
		c.log.Info("auto-rebalance failed", "err", err)
	}
}

// Latencies returns the per-shard round-trip EWMAs in seconds — start of
// a row's fan-out to that worker's last outcome frame — zero for shards
// that have not reported yet.
func (c *Coordinator) Latencies() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.lat...)
}

// SetLatencyHint seeds a shard's round-trip EWMA, letting operators (and
// tests) steer the work-stealing policy before organic signal builds up.
func (c *Coordinator) SetLatencyHint(k int, seconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < 0 || k >= len(c.lat) {
		return
	}
	c.lat[k] = seconds
	c.latSet[k] = true
}

// PlanVersion returns the current ownership-plan epoch.
func (c *Coordinator) PlanVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planVersion
}

// SetAdaptive toggles online model updating on every worker; see
// modelCommandLocked for what happens to one that is down.
func (c *Coordinator) SetAdaptive(adaptive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.modelCommandLocked(MsgShardAdaptive, adaptive)
}

// ResetChains clears every model's Markov position on every worker.
func (c *Coordinator) ResetChains() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.modelCommandLocked(MsgShardResetChains, struct{}{})
}

// Close tears the fabric down: a goodbye on every control connection,
// then the connections themselves. Workers keep their checkpoints.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.releaseBase()
	for _, wc := range c.conns {
		if !wc.dead {
			_ = wc.send(collector.MsgBye, nil) // a courtesy; the close below ends the session either way
			_ = wc.fail(nil)
		}
	}
	obsConnected.Set(0)
}

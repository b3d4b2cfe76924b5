package shardnet

import (
	"fmt"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
)

// StepValues fans one synchronized row — vals in IDs() order, NaN for a
// gap, read only until the call returns — out to every worker at once,
// worker 0 on the calling goroutine, scatters their outcomes into the
// global canonical order and aggregates Q^{a,b} → Q^a → Q and publishes
// alarms exactly as the single-manager path does. A worker that dies or
// stalls mid-row is redialed and replayed from the ring by reviveLocked
// before the aggregation, so it waits until every shard's outcome for this
// row has arrived. The phases (score → aggregate → alarm) are traced as
// span "shardnet.step".
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
	sp.Phase("score")
	for _, wc := range c.conns[1:] {
		c.wg.Add(1)
		go func(wc *workerConn) {
			defer c.wg.Done()
			wc.score()
		}(wc)
	}
	c.conns[0].score()
	c.wg.Wait()
	c.reviveLocked()
	sp.Phase("aggregate")
	report := c.Aggregate(t, c.pairs, c.pairIdx, c.outcomes, sp)
	c.merged = c.seq
	sp.End()
	obsRows.Add(1)
	obsStepSeconds.Observe(time.Since(start).Seconds())
	return report
}

// score is worker wc.k's part of a round, one exchange on its control
// connection: send the row in flight — it went into the ring, encoded once
// for every worker, before the round began — and read the answer into the
// worker's indices of the outcome slice. Each worker's runs on its own
// goroutine of the round, touching only its own connection, latency slot
// and scatter target. A failure has closed the connection, which
// reviveLocked then repairs, replaying the row.
func (wc *workerConn) score() {
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

// Pairs returns every trained link across all workers in the global
// canonical order.
func (c *Coordinator) Pairs() []manager.Pair {
	return append([]manager.Pair(nil), c.pairs...)
}

// readOutcomes reads worker wc.k's answer to row seq — one frame, more
// only when the set exceeds the frame limit — validating every frame
// before it indexes anything. The answer to the row in flight is scattered
// into the worker's indices of the outcome slice; the answers to replayed
// rows already merged were merged before the connection was lost, so they
// are only drained and counted. Callers hold c.mu; a round runs one call
// per worker concurrently.
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
		case h.Total != len(idx):
			// One answer per row: a wrong one cannot be followed by a
			// right one, so the exchange has failed.
			obsStaleOutcomes.Add(1)
			err = fmt.Errorf("shardnet: shard %d answered with %d outcomes, want %d", wc.k, h.Total, len(idx))
		case h.Offset != got:
			err = fmt.Errorf("shardnet: shard %d outcome frame at offset %d, want %d", wc.k, h.Offset, got)
		default:
			for i := 0; i < h.Count; i++ {
				c.outcomes[idx[got+i]] = h.At(i)
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
// is back: handshaken and replayed, which includes collecting the row in
// flight — so it runs before the round aggregates. Callers hold c.mu.
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

// Latencies returns the per-shard round-trip EWMAs in seconds — start of
// a row's fan-out to that worker's last outcome frame — zero for shards
// that have not reported yet.
func (c *Coordinator) Latencies() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.lat...)
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

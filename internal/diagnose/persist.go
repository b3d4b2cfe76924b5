package diagnose

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"mcorr/internal/timeseries"
)

// stateVersion guards the serialized engine layout.
const stateVersion = 1

// engineState is the gob image of an Engine's dynamic state. The
// configuration is not persisted: it belongs to the constructor, so a
// restart may retune thresholds while keeping history and incidents.
type engineState struct {
	Version      int
	Step         time.Duration
	Sys          []FitnessPoint
	Meas         []measurementState
	BelowRun     int
	AboveRun     int
	RunStart     time.Time
	CntPair      int
	CntMeas      int
	CntSys       int
	BasePair     int
	BaseMeas     int
	BaseSys      int
	Open         *Digest
	Closed       []*Digest
	Seq          uint64
	SinceRefresh int
}

// measurementState is one measurement's persisted memory.
type measurementState struct {
	ID       timeseries.MeasurementID
	Points   []FitnessPoint
	BaseN    int
	BaseMean float64
	BaseM2   float64
	Peers    []peerStamp
}

// peerStamp is one broken-pair attribution stamp.
type peerStamp struct {
	ID timeseries.MeasurementID
	T  time.Time
}

// SaveState serializes the engine's dynamic state (histories,
// baselines, incidents, state-machine position) with encoding/gob. The
// encoding is deterministic: measurements and peer stamps are written
// in sorted order.
func (e *Engine) SaveState(w io.Writer) error {
	e.mu.Lock()
	st := engineState{
		Version:      stateVersion,
		Step:         e.step,
		Sys:          e.sys.tail(0),
		BelowRun:     e.belowRun,
		AboveRun:     e.aboveRun,
		RunStart:     e.runStart,
		CntPair:      e.cntPair,
		CntMeas:      e.cntMeas,
		CntSys:       e.cntSys,
		BasePair:     e.basePair,
		BaseMeas:     e.baseMeas,
		BaseSys:      e.baseSys,
		Open:         e.open,
		Closed:       e.closed,
		Seq:          e.seq,
		SinceRefresh: e.sinceRefresh,
	}
	st.Meas = make([]measurementState, 0, len(e.order))
	for _, id := range e.order {
		ms := e.meas[id]
		n, mean, m2 := ms.base.State()
		rec := measurementState{
			ID:       id,
			Points:   ms.ring.tail(0),
			BaseN:    n,
			BaseMean: mean,
			BaseM2:   m2,
		}
		for peer, t := range ms.peers {
			rec.Peers = append(rec.Peers, peerStamp{ID: peer, T: t})
		}
		sort.Slice(rec.Peers, func(i, j int) bool { return rec.Peers[i].ID.Less(rec.Peers[j].ID) })
		st.Meas = append(st.Meas, rec)
	}
	e.mu.Unlock()
	return gob.NewEncoder(w).Encode(st)
}

// MarshalState returns SaveState's output as a byte slice (the form the
// durable checkpoint embeds).
func (e *Engine) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadState restores the dynamic state saved by SaveState into this
// engine, replacing whatever it held. The engine's own Config stays in
// force.
func (e *Engine) LoadState(r io.Reader) error {
	var st engineState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("diagnose: decode state: %w", err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("diagnose: state version %d, want %d", st.Version, stateVersion)
	}
	e.mu.Lock()
	e.step = st.Step
	e.sys = newRing(historyRows)
	for _, p := range tailPoints(st.Sys, historyRows) {
		e.sys.push(p)
	}
	e.meas = make(map[timeseries.MeasurementID]*measState, len(st.Meas))
	e.order = e.order[:0]
	e.bound, e.at = nil, nil // the states they point at are gone
	for _, rec := range st.Meas {
		ms := e.measStateLocked(rec.ID)
		for _, p := range tailPoints(rec.Points, historyRows) {
			ms.ring.push(p)
		}
		ms.base.Restore(rec.BaseN, rec.BaseMean, rec.BaseM2)
		if len(rec.Peers) > 0 {
			ms.peers = make(map[timeseries.MeasurementID]time.Time, len(rec.Peers))
			for _, ps := range rec.Peers {
				ms.peers[ps.ID] = ps.T
			}
		}
	}
	e.belowRun, e.aboveRun = st.BelowRun, st.AboveRun
	e.runStart = st.RunStart
	e.cntPair, e.cntMeas, e.cntSys = st.CntPair, st.CntMeas, st.CntSys
	e.basePair, e.baseMeas, e.baseSys = st.BasePair, st.BaseMeas, st.BaseSys
	e.open = st.Open
	e.closed = st.Closed
	e.seq = st.Seq
	e.sinceRefresh = st.SinceRefresh
	if e.open != nil {
		obsOpenIncidents.Set(1)
	} else {
		obsOpenIncidents.Set(0)
	}
	e.mu.Unlock()
	return nil
}

// UnmarshalState is LoadState from a byte slice.
func (e *Engine) UnmarshalState(data []byte) error {
	return e.LoadState(bytes.NewReader(data))
}

// tailPoints keeps the newest n points of an oldest-first slice.
func tailPoints(pts []FitnessPoint, n int) []FitnessPoint {
	if len(pts) > n {
		return pts[len(pts)-n:]
	}
	return pts
}

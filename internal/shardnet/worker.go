package shardnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"mcorr/internal/collector"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
)

// checkpointVersion guards the worker checkpoint layout. Version 3 is the
// record-format file: this struct, without the plan version of version 2,
// as the meta section, then the shard's models as a manager section (see
// manager.WriteCheckpointFile).
const checkpointVersion = 3

// workerCheckpoint heads the durable state a worker persists under
// data-dir/shard-<k>/: enough to rejoin the fabric after a SIGKILL with
// the merged trajectory unchanged. AppliedSeq only ever names a row the
// coordinator is known to have merged, with the models exactly as that
// row left them, so recovery re-scores exactly the replayed suffix and
// never skips or double-advances a model.
type workerCheckpoint struct {
	Version    int
	RunID      string
	K, N       int
	AppliedSeq uint64
}

// WorkerConfig configures a shard worker process.
type WorkerConfig struct {
	// DataDir is the checkpoint root; the worker writes under
	// DataDir/shard-<k>/. Required.
	DataDir string
	// CheckpointEvery overrides the coordinator-announced checkpoint
	// cadence when > 0 (rows between checkpoints).
	CheckpointEvery int
	// Logger receives diagnostics; nil discards them.
	Logger *obs.Logger
}

// Worker is a networked shard scorer: it owns one shard's trained models,
// scores the rows the coordinator streams over the control connection, and
// answers each on that connection with the shard's outcome set. Model
// state survives control-session churn in memory and SIGKILL through
// per-epoch checkpoints.
type Worker struct {
	cfg WorkerConfig
	log *obs.Logger
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	sess   *session

	// smu serializes all shard-state access across control sessions: a
	// superseded session may still be scoring a row when its replacement
	// starts its handshake.
	smu sync.Mutex
	st  *shardState
}

// session is one accepted control connection.
type session struct {
	conn net.Conn
	r    *bufio.Reader // the one reader of conn: every frame of the session comes through it
	gone atomic.Bool   // set when a newer session supersedes this one
}

// shardState is the worker's live shard: it persists across control
// sessions within the process so a reconnect never retrains or reloads.
type shardState struct {
	runID string
	k, n  int
	mgr   *manager.Manager

	// scoredSeq is the last row scored; ackedSeq is the last row the
	// coordinator is known to have merged. The ack is implicit: Step holds
	// the coordinator's lock for a whole round, so whatever it sends after
	// row s other than a replay of s — row s+1, a goodbye — it sent after
	// merging s. The two differ by at most that one row, whose encoded
	// answer outBuf keeps so a replay never re-steps a model.
	ackedSeq  uint64
	scoredSeq uint64
	outBuf    []byte // appendOutcomeFrames of scoredSeq; reused row to row

	dst           []manager.Outcome
	vals          []float64 // the row being scored, decoded in the manager's measurement order
	ckptEvery     int
	rowsSinceCkpt int
}

// ListenWorker binds a shard worker to addr (":0" picks a free port).
// Call Serve to accept coordinator sessions.
func ListenWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("shardnet: worker requires a data dir")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shardnet: listen %s: %w", addr, err)
	}
	return &Worker{cfg: cfg, log: cfg.Logger.With("component", "shardnet-worker"), ln: ln}, nil
}

// Addr returns the worker's control listen address.
func (w *Worker) Addr() net.Addr { return w.ln.Addr() }

// Serve accepts coordinator control sessions until Close. A new session
// supersedes the previous one (the coordinator redials after any
// connection failure it observes).
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		if w.sess != nil {
			w.sess.gone.Store(true)
			w.sess.conn.Close()
		}
		sess := &session{conn: conn, r: bufio.NewReaderSize(conn, readBuffer)}
		w.sess = sess
		w.mu.Unlock()
		obsWorkerSessions.Add(1)
		go func() {
			if err := w.handle(sess); err != nil && !sess.gone.Load() {
				w.log.Info("session ended", "err", err)
			}
			sess.conn.Close()
		}()
	}
}

// Close stops the worker: the listener, the active session and the
// shard's scoring pool.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	sess := w.sess
	w.mu.Unlock()
	err := w.ln.Close()
	if sess != nil {
		sess.gone.Store(true)
		sess.conn.Close()
	}
	w.smu.Lock()
	if w.st != nil {
		w.st.mgr.Close()
		w.st = nil
	}
	w.smu.Unlock()
	return err
}

// shardDir is the checkpoint directory for shard k.
func (w *Worker) shardDir(k int) string {
	return filepath.Join(w.cfg.DataDir, fmt.Sprintf("shard-%d", k))
}

func (w *Worker) checkpointPath(k int) string {
	return filepath.Join(w.shardDir(k), "checkpoint.gob")
}

// handle runs one control session. All shard-state mutation happens under
// w.smu so a superseded session finishing its last row cannot race its
// replacement.
func (w *Worker) handle(sess *session) error {
	f, err := collector.ReadFrame(sess.r)
	if err != nil {
		return err
	}
	if f.Type != MsgShardAssign {
		return fmt.Errorf("shardnet: expected assign (type %d), got type %d: mcdetect and mcshard must come from the same build",
			byte(MsgShardAssign), byte(f.Type))
	}
	var a assignMsg
	if err := decodeGob(f.Payload, &a); err != nil {
		return err
	}

	w.smu.Lock()
	st, err := w.adoptState(sess, a)
	w.smu.Unlock()
	if err != nil {
		return err
	}

	for {
		f, err := collector.ReadFrame(sess.r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		w.smu.Lock()
		err = w.dispatch(sess, st, f)
		w.smu.Unlock()
		if err != nil {
			return err
		}
	}
}

// adoptState resolves the session's shard state — in-memory, checkpoint,
// or a fresh state transfer — and completes the ready handshake. Callers
// hold w.smu.
func (w *Worker) adoptState(sess *session, a assignMsg) (*shardState, error) {
	st := w.st
	if st != nil && st.runID == a.RunID && st.k != a.K {
		// One process serving two shards of a run would retire one for the
		// other on every row: the coordinator lists this worker twice.
		err := fmt.Errorf("shardnet: worker serves shard %d of this run, refused shard %d: is it listed twice?", st.k, a.K)
		_ = writeGob(sess.conn, MsgShardReady, readyMsg{Err: err.Error()}) // the session ends either way
		return nil, err
	}
	if st != nil && st.runID != a.RunID {
		// A different run retires the old shard entirely.
		st.mgr.Close()
		st, w.st = nil, nil
	}
	if st == nil {
		if ck, mgr, err := w.loadCheckpoint(a); err == nil {
			st = &shardState{
				runID:     a.RunID,
				k:         a.K,
				n:         a.N,
				mgr:       mgr,
				ackedSeq:  ck.AppliedSeq,
				scoredSeq: ck.AppliedSeq,
			}
			w.st = st
			w.log.Info("recovered from checkpoint", "shard", a.K, "seq", ck.AppliedSeq)
		} else if !errors.Is(err, manager.ErrNoCheckpoint) {
			w.log.Info("checkpoint unusable", "shard", a.K, "err", err)
		}
	}
	if st == nil {
		// No usable state: ask for a transfer, install it, and persist the
		// epoch-zero checkpoint before reporting ready — from here on a
		// SIGKILL always has a checkpoint to recover from.
		if err := writeGob(sess.conn, MsgShardReady, readyMsg{HaveState: false}); err != nil {
			return nil, err
		}
		// The models are decoded one at a time while their chunks arrive.
		cr := &chunkReader{conn: sess.r}
		mgr, err := manager.LoadManager(cr, nil)
		if err == nil {
			if err = cr.finish(); err != nil {
				mgr.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("shardnet: load shard state: %w", err)
		}
		st = &shardState{runID: a.RunID, k: a.K, n: a.N, mgr: mgr}
		w.st = st
	}
	// A row frame indexes the assign's measurement order and is decoded
	// straight into the slice the manager scores, so the two must agree.
	if !slices.Equal(a.IDs, st.mgr.IDs()) {
		return nil, errors.New("shardnet: assigned measurements differ from the shard's")
	}
	st.vals = make([]float64, len(a.IDs))
	st.ckptEvery = a.CheckpointEvery
	if w.cfg.CheckpointEvery > 0 {
		st.ckptEvery = w.cfg.CheckpointEvery
	}
	if st.ckptEvery <= 0 {
		st.ckptEvery = 240
	}
	// A shard that outlived its session may hold a scored row it cannot
	// yet know was merged; its file from the last acked boundary stands.
	if st.scoredSeq == st.ackedSeq {
		if err := w.checkpoint(st); err != nil {
			return nil, err
		}
	}
	return st, writeGob(sess.conn, MsgShardReady, readyMsg{
		HaveState:  true,
		AppliedSeq: st.ackedSeq,
		Pairs:      st.mgr.Pairs(),
	})
}

// loadCheckpoint reads and validates the shard-k checkpoint for this run.
func (w *Worker) loadCheckpoint(a assignMsg) (*workerCheckpoint, *manager.Manager, error) {
	var ck workerCheckpoint
	cr, err := manager.OpenCheckpointFile(w.checkpointPath(a.K), &ck)
	if err != nil {
		return nil, nil, err
	}
	defer cr.Close()
	if ck.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("checkpoint version %d", ck.Version)
	}
	if ck.RunID != a.RunID || ck.K != a.K {
		return nil, nil, fmt.Errorf("checkpoint is for run %q shard %d", ck.RunID, ck.K)
	}
	body, err := cr.Section(manager.SectionManager)
	if err != nil {
		return nil, nil, err
	}
	mgr, err := manager.LoadManager(body, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("load manager: %w", err)
	}
	if err := cr.End(); err != nil {
		mgr.Close()
		return nil, nil, err
	}
	return &ck, mgr, nil
}

// checkpoint atomically persists the shard's models and applied sequence,
// streaming the models straight into the file. Callers are at an acked
// boundary: the models are as row ackedSeq left them.
func (w *Worker) checkpoint(st *shardState) error {
	if err := os.MkdirAll(w.shardDir(st.k), 0o755); err != nil {
		return err
	}
	ck := workerCheckpoint{
		Version:    checkpointVersion,
		RunID:      st.runID,
		K:          st.k,
		N:          st.n,
		AppliedSeq: st.ackedSeq,
	}
	err := manager.WriteCheckpointFile(w.checkpointPath(st.k), &ck, func(cw *manager.CheckpointWriter) error {
		return cw.Stream(manager.SectionManager, st.mgr.Save)
	})
	if err != nil {
		return err
	}
	st.rowsSinceCkpt = 0
	obsWorkerCheckpoints.Add(1)
	return nil
}

// dispatch handles one post-handshake control frame: a row, or the
// coordinator's goodbye. Callers hold w.smu.
func (w *Worker) dispatch(sess *session, st *shardState, f collector.Frame) error {
	if f.Type == MsgShardRow {
		return w.handleRow(sess, st, f.Payload)
	}
	// Any other frame follows a merged row (see shardState.ackedSeq).
	st.ack()
	if f.Type == collector.MsgBye {
		return io.EOF
	}
	return fmt.Errorf("shardnet: unexpected control frame type %d", byte(f.Type))
}

// ack records that the coordinator merged the last scored row.
func (st *shardState) ack() {
	if st.ackedSeq != st.scoredSeq {
		st.ackedSeq = st.scoredSeq
		st.rowsSinceCkpt++
	}
}

// handleRow scores one streamed row and answers it with the shard's
// outcome frames. Rows arrive in sequence, and the arrival of the next one
// acks the last (checkpointing on the cadence, before any model moves on);
// a replay of the last scored row re-sends its cached answer instead of
// re-stepping the models, which is what keeps the merged trajectory
// bit-identical across reconnects.
func (w *Worker) handleRow(sess *session, st *shardState, payload []byte) error {
	seq, _, err := decodeRowFrame(payload, st.vals)
	if err != nil {
		return err
	}
	switch {
	case seq == st.scoredSeq && len(st.outBuf) > 0:
		return writeOutcomeFrames(sess.conn, st.outBuf)
	case seq != st.scoredSeq+1:
		return fmt.Errorf("shardnet: row gap: got seq %d, scored %d", seq, st.scoredSeq)
	}
	if st.ack(); st.rowsSinceCkpt >= st.ckptEvery {
		if err := w.checkpoint(st); err != nil {
			return err
		}
	}

	n := st.mgr.PairCount()
	if cap(st.dst) < n {
		st.dst = make([]manager.Outcome, n)
	}
	st.dst = st.dst[:n]
	st.mgr.ScoreInto(st.vals, st.dst)
	obsWorkerRows.Add(1)

	st.scoredSeq = seq
	st.outBuf = appendOutcomeFrames(st.outBuf, seq, st.dst)
	return writeOutcomeFrames(sess.conn, st.outBuf)
}

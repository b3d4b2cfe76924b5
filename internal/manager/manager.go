package manager

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/core"
	"mcorr/internal/mathx"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// Pair is an unordered measurement pair in canonical (Less) order.
type Pair struct {
	A, B timeseries.MeasurementID
}

// MakePair returns the canonical pair for two measurements.
func MakePair(a, b timeseries.MeasurementID) Pair {
	if b.Less(a) {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// String renders the pair as "a ~ b". This is also the pair's canonical
// shard key (see shardnet.Assign): it must stay stable across releases or
// the pairs a networked worker's checkpoint holds would no longer be the
// ones its shard is assigned.
func (p Pair) String() string { return p.A.String() + " ~ " + p.B.String() }

// Less orders pairs canonically: by A, then by B. It is the global pair
// order every scoring fabric must use so aggregation sums floats in one
// fixed sequence.
func (p Pair) Less(q Pair) bool {
	if p.A != q.A {
		return p.A.Less(q.A)
	}
	return p.B.Less(q.B)
}

// validPair reports whether p is a canonical pair (A < B) of two members
// of ids, which must be sorted by MeasurementID.Less. Every constructor
// holds a manager's pairs to it, which is what lets a pair read both its
// values from a dense row by index: the row has a column for each.
func validPair(ids []timeseries.MeasurementID, p Pair) bool {
	has := func(id timeseries.MeasurementID) bool {
		i := sort.Search(len(ids), func(i int) bool { return !ids[i].Less(id) })
		return i < len(ids) && ids[i] == id
	}
	return p.A.Less(p.B) && has(p.A) && has(p.B)
}

// SortPairs sorts pairs into the canonical global order (Pair.Less).
func SortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Less(pairs[j]) })
}

// Config controls a Manager.
type Config struct {
	// Model is the per-pair model configuration (core.Config defaults
	// apply). Set Model.Adaptive for the paper's adaptive mode.
	Model core.Config
	// Workers bounds concurrent model training/scoring; default
	// GOMAXPROCS.
	Workers int
	// MeasurementThreshold raises a measurement alarm when Q^a falls
	// below it (0 disables).
	MeasurementThreshold float64
	// SystemThreshold raises a system alarm when Q falls below it
	// (0 disables).
	SystemThreshold float64
	// ProbDelta is the paper's δ: a pair alarm fires when the observed
	// transition probability falls below it (0 disables).
	ProbDelta float64
	// Sink receives alarms; nil discards them.
	Sink alarm.Sink
	// TrackPairMeans maintains a running mean fitness per link, enabling
	// WorstPairs — the paper's finest drill-down level (Q^{a,b}).
	TrackPairMeans bool
	// FullRescore disables the incremental dirty-pair scheduler: every
	// pair re-scores through its model on every row, exactly as if no
	// outcome had ever been cached. Trajectories are bit-identical either
	// way — the incremental path's carry-forward is exact by construction —
	// so this exists as the reference mode for property tests and as an
	// operational escape hatch.
	FullRescore bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Every published alarm flows through a CountingSink so alarm volume by
	// severity/scope is on the ops surface (mcorr_alarm_raised_total) even
	// when the caller provides no sink at all.
	if _, counted := c.Sink.(alarm.CountingSink); !counted {
		c.Sink = alarm.CountingSink{Next: c.Sink}
	}
	// With the probability gate off (δ = 0) nothing downstream reads
	// Outcome.Prob — StepReport never carries it — so the models can skip
	// the normalizer entirely on the scoring hot path. Fitness is
	// unaffected (see core.Config.OmitProbs).
	if c.ProbDelta <= 0 {
		c.Model.OmitProbs = true
	}
	return c
}

// Row is one synchronized observation of every measurement at one time.
// Missing measurements (gaps) are simply absent from the map. It is the
// map form of a row that Step takes; MapRows converts it into the dense
// slice StepValues scores.
type Row struct {
	Time   time.Time
	Values map[timeseries.MeasurementID]float64
}

// FillValues writes the row as a dense slice: dst[i] is ids[i]'s value, NaN
// where the row has none. Scoring treats an absent measurement and a NaN one
// as the same gap, so nothing is lost; measurements not in ids are dropped.
func (r Row) FillValues(ids []timeseries.MeasurementID, dst []float64) {
	for i, id := range ids {
		v, ok := r.Values[id]
		if !ok {
			v = math.NaN()
		}
		dst[i] = v
	}
}

// MapRows is the map-row half of a fleet's scoring surface, written once
// for every fleet shape: a fleet embeds one built over its own IDs() order
// and StepValues, and gets Step — each row converted once into the
// adapter's dense buffer and scored from it.
type MapRows struct {
	mu   sync.Mutex // guards buf; taken before the fleet's own step lock
	ids  []timeseries.MeasurementID
	buf  []float64
	step func(time.Time, []float64) StepReport
}

// NewMapRows adapts step, a fleet's StepValues over ids, to map rows.
func NewMapRows(ids []timeseries.MeasurementID, step func(time.Time, []float64) StepReport) *MapRows {
	return &MapRows{ids: ids, buf: make([]float64, len(ids)), step: step}
}

// Step scores one synchronized map row (see the fleet's StepValues).
func (r *MapRows) Step(row Row) StepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	row.FillValues(r.ids, r.buf)
	return r.step(row.Time, r.buf)
}

// StepReport is the outcome of scoring one row.
type StepReport struct {
	Time time.Time
	// System is Q_t: the mean of the per-measurement scores. NaN when
	// nothing was scored.
	System float64
	// Measurements holds Q^a for every measurement with at least one
	// scored link this step.
	Measurements map[timeseries.MeasurementID]float64
	// ScoredPairs counts the links that produced a score this step.
	ScoredPairs int
	// GrownPairs counts the links whose adaptive grid grew this step —
	// zero once the fleet has settled on the stream's operating region
	// (benchmarks warm up until a full pass reports no growth).
	GrownPairs int
}

// Manager owns the model fleet. All methods are safe for concurrent use,
// but rows must be fed in time order.
type Manager struct {
	// Aggregator is the manager's aggregation layer — the running means,
	// localization, drill-down, thresholds and effective Config are its
	// methods. Shard managers built with NewSubset never feed theirs; the
	// networked coordinator embeds a separate one.
	*Aggregator
	// MapRows is Step(Row) over StepValues.
	*MapRows

	cfg Config
	ids []timeseries.MeasurementID

	mu     sync.Mutex
	models map[Pair]*core.Model

	// Step-path state, built once by initRuntime: the stable sorted pair
	// slice (which worker scores a pair varies from row to row; a pair's
	// outcome is written at its index and aggregated in index order, so it
	// cannot show), per-pair measurement indices for map-free Q^a
	// aggregation, reusable outcome scratch, and the persistent worker pool.
	pairs    []Pair
	pairIdx  [][2]int      // pairs[i] → indices into ids
	modelAt  []*core.Model // pairs[i]'s model, so the hot loop never hashes a Pair
	outcomes []Outcome     // reused every step; doubles as the carry-forward cache
	curVals  []float64     // row being scored (the caller's, in ids order), read by pool workers
	curDst   []Outcome     // ScoreInto destination (nil under StepValues), read by pool workers
	scoreFn  func(lo, hi int)
	pool     *workerPool

	// Incremental dirty-pair state. steadyOK[i] marks pair i as steady: its
	// model holds a frozen self-run whose outcome is cached in outcomes[i],
	// and steadyB[4i:4i+4] = {xlo, xhi, ylo, yhi} are the run cell's bounds.
	// While both of the pair's values stay inside those half-open bounds the
	// next Step provably repeats the cached outcome, so the pair is skipped
	// (the model just logs the deferred update via NoteSkipped). Any rebuild
	// of the runtime (New/NewSubset/LoadManager, and therefore
	// every recovery) starts all-dirty; the models re-freeze on
	// the first row and the caches repopulate deterministically.
	steadyOK []bool
	steadyB  []float64
	// stepSkipped counts skipped pairs of the row being scored; workers add
	// atomically per chunk, Step/ScoreInto read it after the pool drains.
	stepSkipped uint64
	// lastDirty is the dirty (re-scored) pair count of the last row, for
	// the ops gauge.
	lastDirty int
	// modelBytes is this manager's share of mcorr_manager_model_bytes.
	modelBytes float64
}

// workerPool is the manager's persistent scoring pool: the caller of run
// plus a fixed set of helper goroutines, created once, that claim small
// index ranges of the current job from one atomic cursor until none is left
// — so a stretch of expensive pairs is shared out instead of setting the
// row's time, as a static split would let it. Helpers hold only the wake
// channel — never the pool or the Manager — so an abandoned manager stays
// collectable; its finalizer closes the channel and the helpers exit.
type workerPool struct {
	wake chan *poolJob
	job  poolJob // reused by every run
	once sync.Once
}

// poolJob is one run's work: fn over [0, n), claimed claimChunk at a time.
type poolJob struct {
	n    int
	fn   func(lo, hi int)
	next atomic.Int64   // first unclaimed index
	done sync.WaitGroup // helpers woken for this run
}

// claimChunk is how many indices one claim takes: the block of pairs
// scoreChunk warms together, which is what bounds it.
const claimChunk = 16

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{wake: make(chan *poolJob, workers-1)}
	for w := 1; w < workers; w++ {
		go poolHelper(p.wake)
	}
	// The finalizer lives on the small pool struct — not the Manager — so
	// an abandoned manager's model fleet is collected promptly and only
	// the pool header survives the extra finalizer cycle before its
	// helpers are told to exit.
	runtime.SetFinalizer(p, (*workerPool).close)
	return p
}

func poolHelper(wake <-chan *poolJob) {
	for j := range wake {
		j.work()
		j.done.Done()
	}
}

// work claims and executes chunks until the job has none left.
func (j *poolJob) work() {
	for {
		hi := int(j.next.Add(claimChunk))
		lo := hi - claimChunk
		if lo >= j.n {
			return
		}
		j.fn(lo, min(hi, j.n))
	}
}

// run executes fn over [0, n) in chunks of claimChunk, on the calling
// goroutine and on as many helpers as there are further chunks, and blocks
// until every chunk is done and every helper it woke has let go of the job.
// Calls must not overlap; Step's lock (and New's construction phase)
// serialize them.
func (p *workerPool) run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	j := &p.job
	j.n, j.fn = n, fn
	j.next.Store(0)
	helpers := min((n-1)/claimChunk, cap(p.wake))
	j.done.Add(helpers)
	for h := 0; h < helpers; h++ {
		p.wake <- j
	}
	j.work()
	j.done.Wait()
	j.fn = nil // fn holds the Manager; the pool must not
}

// close shuts the pool down; idempotent.
func (p *workerPool) close() {
	p.once.Do(func() { close(p.wake) })
}

// Close stops the manager's persistent worker pool. It is safe to call
// more than once, but the manager must not be stepped afterwards. Managers
// that are simply dropped are cleaned up by a finalizer; Close exists for
// callers that want deterministic shutdown.
func (m *Manager) Close() {
	if m.pool != nil {
		m.pool.close()
	}
	m.mu.Lock()
	m.publishModelBytesLocked(0)
	m.mu.Unlock()
}

// refreshModelBytes re-measures the fleet's stored matrix rows for the
// mcorr_manager_model_bytes gauge. It runs where the models are visited
// anyway — after training, a load and on every Save — so the
// Step path never pays for it.
func (m *Manager) refreshModelBytes() {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, model := range m.modelAt {
		total += model.MatrixBytes()
	}
	m.publishModelBytesLocked(float64(total))
}

// publishModelBytesLocked moves the process-wide gauge by the change in
// this manager's share, so several managers in one process (tenants, or a
// networked fleet's trained shards before their hand-off) add up. Callers
// hold m.mu.
func (m *Manager) publishModelBytesLocked(v float64) {
	obsModelBytes.Add(v - m.modelBytes)
	m.modelBytes = v
}

// initRuntime builds the step-path state. The models map must be final.
func (m *Manager) initRuntime() {
	m.pairs = make([]Pair, 0, len(m.models))
	for p := range m.models {
		m.pairs = append(m.pairs, p)
	}
	SortPairs(m.pairs)
	m.pairIdx = BuildPairIndex(m.ids, m.pairs)
	m.modelAt = make([]*core.Model, len(m.pairs))
	for i, p := range m.pairs {
		m.modelAt[i] = m.models[p]
	}
	m.outcomes = make([]Outcome, len(m.pairs))
	// All-dirty: every pair re-scores on the first row after a (re)build,
	// which is what lets recovery skip persisting these caches.
	m.steadyOK = make([]bool, len(m.pairs))
	m.steadyB = make([]float64, 4*len(m.pairs))
	m.scoreFn = m.scoreChunk
	if m.Aggregator == nil {
		m.Aggregator = NewAggregator(m.ids, m.cfg)
		m.MapRows = NewMapRows(m.ids, m.StepValues)
	}
	if m.pool == nil {
		m.pool = newWorkerPool(m.cfg.Workers)
	}
}

// BuildPairIndex maps each pair to the indices of its endpoints in ids.
// Both the Manager and the networked coordinator derive their aggregation
// index from this one helper so the two paths cannot drift. Every
// constructor, AddModel and LoadManager keep both endpoints of each pair
// in ids, so an endpoint outside them is a broken invariant and panics.
func BuildPairIndex(ids []timeseries.MeasurementID, pairs []Pair) [][2]int {
	idIndex := make(map[timeseries.MeasurementID]int, len(ids))
	for i, id := range ids {
		idIndex[id] = i
	}
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		ia, oka := idIndex[p.A]
		ib, okb := idIndex[p.B]
		if !oka || !okb {
			panic(fmt.Sprintf("manager: pair %s has an endpoint outside the measurement universe", p))
		}
		out[i] = [2]int{ia, ib}
	}
	return out
}

// New trains one model per measurement pair from the history dataset.
// Pairs whose aligned history is empty are skipped (and absent from
// Pairs()). At least two measurements are required.
func New(history *timeseries.Dataset, cfg Config) (*Manager, error) {
	return NewSubset(history, cfg, nil)
}

// NewSubset trains a manager over only the pairs accepted by keep (nil
// keeps every pair) — the building block of the networked scoring fabric,
// where each shard owns the models of its assigned pair subset, and of the
// discovery tier's bounded graph. Unlike New, a non-nil keep tolerates an
// empty resulting fleet: a shard with no pairs is legal and simply scores
// nothing.
func NewSubset(history *timeseries.Dataset, cfg Config, keep func(Pair) bool) (*Manager, error) {
	trainStart := time.Now()
	defer func() { obsTrainSeconds.Observe(time.Since(trainStart).Seconds()) }()
	cfg = cfg.withDefaults()
	ids := history.IDs()
	if len(ids) < 2 {
		return nil, fmt.Errorf("manager needs at least 2 measurements, got %d", len(ids))
	}
	m := &Manager{
		cfg:    cfg,
		ids:    ids,
		models: make(map[Pair]*core.Model),
	}
	m.pool = newWorkerPool(cfg.Workers)

	// Train the kept links on the same pool that will score them; the
	// results slice keeps training deterministic (first error in pair
	// order, not channel-arrival order).
	pairs := history.Pairs()
	type result struct {
		model *core.Model
		err   error
	}
	results := make([]result, len(pairs))
	m.pool.run(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pr := pairs[i]
			if keep != nil && !keep(MakePair(pr[0], pr[1])) {
				continue
			}
			pts, _, err := timeseries.AlignPair(history.Get(pr[0]), history.Get(pr[1]))
			if err != nil || len(pts) == 0 {
				// No overlap: skip this link.
				continue
			}
			model, err := core.Train(pts, cfg.Model)
			if err != nil {
				results[i] = result{err: fmt.Errorf("train %s ~ %s: %w", pr[0], pr[1], err)}
				continue
			}
			results[i] = result{model: model}
		}
	})
	for i, r := range results {
		switch {
		case r.err != nil:
			m.Close()
			return nil, r.err
		case r.model != nil:
			m.models[MakePair(pairs[i][0], pairs[i][1])] = r.model
		}
	}
	if len(m.models) == 0 && keep == nil {
		m.Close()
		return nil, fmt.Errorf("manager: no trainable pairs: %w", core.ErrNoData)
	}
	m.initRuntime()
	m.refreshModelBytes()
	return m, nil
}

// Pairs returns the trained links in stable order.
func (m *Manager) Pairs() []Pair {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Pair(nil), m.pairs...)
}

// PairCount returns the number of trained links without copying the pair
// slice — the per-row fast path for callers that only size buffers.
func (m *Manager) PairCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pairs)
}

// Model returns the trained model for a pair (nil when absent).
func (m *Manager) Model(a, b timeseries.MeasurementID) *core.Model {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.models[MakePair(a, b)]
}

// AddModel grafts an already-trained model into the live pair graph
// without touching any neighbor: the step-path state is rebuilt all-dirty
// (the same invariant recovery relies on), so surviving pairs'
// trajectories are unchanged bit for bit. Replacing an existing pair's
// model is allowed; a self-pair or a pair with an endpoint outside IDs()
// is not. This is the discovery tier's admission primitive.
func (m *Manager) AddModel(p Pair, model *core.Model) error {
	if model == nil {
		return fmt.Errorf("manager: add %s: nil model", p)
	}
	p = MakePair(p.A, p.B)
	if !validPair(m.ids, p) {
		return fmt.Errorf("manager: add %s: not a pair of two of the fleet's measurements", p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.models[p] = model
	m.initRuntime()
	return nil
}

// RemovePair drops a pair's model from the live graph, freeing the model
// memory and its slice slots on the next runtime rebuild. Reports whether
// the pair was present. This is the discovery tier's eviction primitive.
func (m *Manager) RemovePair(p Pair) bool {
	p = MakePair(p.A, p.B)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.models[p]; !ok {
		return false
	}
	delete(m.models, p)
	m.initRuntime()
	return true
}

// StepValues scores one synchronized row across every link, updates the
// running accumulators, and publishes alarms. vals is the row in IDs()
// order with NaN for a gap; it is only read, and only until StepValues
// returns. The fan-out runs on the persistent worker pool over the cached
// sorted pair slice and the aggregation scratch is reused, so a step
// allocates nothing beyond the returned report's maps. The phases (score →
// aggregate → alarm) are traced via obs.StartSpan and the step latency,
// gap/growth counts and fitness distributions land on the ops surface.
func (m *Manager) StepValues(t time.Time, vals []float64) StepReport {
	stepStart := time.Now()
	sp := obs.StartSpan("manager.step")
	m.mu.Lock()
	defer m.mu.Unlock()

	// Fan the links out over the persistent pool. The happens-before edges
	// of the wake channel and the wait group order the curVals/outcomes
	// accesses between this goroutine and the helpers.
	sp.Phase("score")
	m.scoreLocked(vals)
	obsDirtyPairs.Set(float64(m.lastDirty))

	// Aggregate Q^{a,b} → Q^a → Q and publish alarms through the shared
	// Aggregator — the exact code the networked coordinator runs, which is
	// what keeps the two modes bit-identical.
	sp.Phase("aggregate")
	report := m.Aggregate(t, m.pairs, m.pairIdx, m.outcomes, sp)
	sp.End()
	obsStepSeconds.Observe(time.Since(stepStart).Seconds())
	return report
}

// Run replays ds over [from, to) through StepValues, one dense row per
// sampling step (timeseries.Dataset.EachRow in IDs() order, NaN where a
// series has no sample), and returns the per-step reports.
func (m *Manager) Run(ds *timeseries.Dataset, from, to time.Time) ([]StepReport, error) {
	var reports []StepReport
	err := ds.EachRow(m.ids, from, to, func(t time.Time, row []float64) {
		reports = append(reports, m.StepValues(t, row))
	})
	return reports, err
}

// ScoreInto scores every trained pair against the dense row vals (see
// StepValues) on the manager's own worker pool, writing pair i's outcome
// into dst[i]. It advances model state exactly like Step but performs no
// aggregation, accumulator updates or alarms — a networked shard worker
// scores its pairs this way and returns the outcomes to the coordinator,
// which aggregates them centrally. The dirty-pair gauge is left alone: the
// worker's pair count is not the fleet's.
func (m *Manager) ScoreInto(vals []float64, dst []Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.curDst = dst
	m.scoreLocked(vals)
	m.curDst = nil
}

// scoreLocked scores every pair of the row on the pool and records the
// dirty/skipped split. A row of the wrong width is a caller's bug and
// would otherwise surface as an index panic on a pool goroutine. Callers
// hold m.mu.
func (m *Manager) scoreLocked(vals []float64) {
	if len(vals) != len(m.ids) {
		panic(fmt.Sprintf("manager: row of %d values for %d measurements", len(vals), len(m.ids)))
	}
	m.curVals = vals
	atomic.StoreUint64(&m.stepSkipped, 0)
	m.pool.run(len(m.pairs), m.scoreFn)
	m.curVals = nil
	m.noteDirty(int(atomic.LoadUint64(&m.stepSkipped)))
}

// noteDirty records the last row's dirty/skipped split and feeds the
// cumulative skip counter. Callers hold m.mu.
func (m *Manager) noteDirty(skipped int) {
	m.lastDirty = len(m.pairs) - skipped
	if skipped > 0 {
		obsSkippedPairs.Add(uint64(skipped))
	}
}

// scoreChunk scores pairs [lo, hi) of the current row — one claimed chunk —
// into the carry-forward cache and, under ScoreInto, the caller's buffer. A fleet far beyond the caches is bound by
// memory latency, not arithmetic: a re-scored pair first reads a model, a
// grid and a matrix row nothing has touched since its last turn, and scored
// one after the other those misses queue. So the chunk is walked twice: the
// first pass warms every pair the skip test will not carry (reads only, so
// the block's miss chains overlap), the second scores. The warmed rows, ~2 KB
// each, must still be cached when the second pass reaches them, which is
// what keeps claimChunk small.
func (m *Manager) scoreChunk(lo, hi int) {
	vals, dst := m.curVals, m.curDst
	for i := lo; i < hi; i++ {
		if idx := m.pairIdx[i]; !m.carries(i, vals[idx[0]], vals[idx[1]]) {
			m.modelAt[i].Warm()
		}
	}
	skipped := uint64(0)
	for i := lo; i < hi; i++ {
		out := m.stepPairAt(i, vals, &skipped)
		m.outcomes[i] = out
		if dst != nil {
			dst[i] = out
		}
	}
	if skipped > 0 {
		atomic.AddUint64(&m.stepSkipped, skipped)
	}
}

// carries is the incremental scheduler's skip test: a steady pair whose two
// values stayed inside the cached cell bounds provably repeats the cached
// outcome bit-for-bit. The half-open comparisons replicate core Axis.Locate,
// so NaN and boundary crossings always fall through to a real re-score.
func (m *Manager) carries(i int, va, vb float64) bool {
	if !m.steadyOK[i] || m.cfg.FullRescore {
		return false
	}
	b := m.steadyB[4*i : 4*i+4 : 4*i+4]
	return va >= b[0] && va < b[1] && vb >= b[2] && vb < b[3]
}

// stepPairAt scores link i for the row — or skips it. A NaN on either side
// is a monitoring gap: the link's chain resets unscored. A pair the skip
// test carries only needs its model told the run continued; NoteSkipped
// returning false means the model was reset or mutated behind the cache,
// and the pair then re-scores late-dirty, which is always safe.
func (m *Manager) stepPairAt(i int, vals []float64, skipped *uint64) Outcome {
	model := m.modelAt[i]
	idx := m.pairIdx[i]
	va, vb := vals[idx[0]], vals[idx[1]]
	if m.carries(i, va, vb) && model.NoteSkipped() {
		*skipped++
		return m.outcomes[i]
	}
	if math.IsNaN(va) || math.IsNaN(vb) {
		model.Reset()
		m.steadyOK[i] = false
		return Outcome{Gap: true}
	}
	res := model.Step(mathx.Point2{X: va, Y: vb})
	if res.Steady {
		if !m.steadyOK[i] {
			// The pair just entered a steady run: cache its cell bounds. A
			// pair that was already steady and re-scored dirty (FullRescore
			// or a late-dirty fallback) kept the same cell — a cell change
			// breaks the run and reports Steady=false — so its cached
			// bounds remain valid.
			if xlo, xhi, ylo, yhi, ok := model.SteadyBounds(); ok {
				b := m.steadyB[4*i : 4*i+4 : 4*i+4]
				b[0], b[1], b[2], b[3] = xlo, xhi, ylo, yhi
				m.steadyOK[i] = true
			}
		}
	} else {
		m.steadyOK[i] = false
	}
	return Outcome{Fitness: res.Fitness, Prob: res.Prob, Scored: res.Scored, Grown: res.Grown, Steady: res.Steady}
}

// PairState is one link's live scheduler state, the unit of the ops
// topology view: the pair, whether the incremental scheduler holds it
// steady (cached outcome carried forward), and its last outcome.
type PairState struct {
	Pair Pair
	// Steady reports whether the pair sits in a frozen self-transition
	// run with valid cached cell bounds (skip-eligible).
	Steady bool
	// Scored reports whether the last row produced a score for this
	// link (false right after a gap or before the first row).
	Scored bool
	// Fitness is the link's last Q^{a,b} (0 until the first scored row).
	Fitness float64
}

// PairStates returns every link's live scheduler state in the manager's
// canonical pair order.
func (m *Manager) PairStates() []PairState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PairState, len(m.pairs))
	for i, p := range m.pairs {
		o := m.outcomes[i]
		out[i] = PairState{Pair: p, Steady: m.steadyOK[i], Scored: o.Scored, Fitness: o.Fitness}
	}
	return out
}

// PairScore is one link's accumulated mean fitness.
type PairScore struct {
	Pair  Pair
	Score float64
	// Samples is how many scored transitions contributed.
	Samples int
}

// MachineScore is one machine's average fitness (the paper's Figure 14).
type MachineScore struct {
	Machine string
	Score   float64
	// Measurements is how many measurements contributed.
	Measurements int
}

// Localization is the problem-localization report: machines ranked by
// average fitness, worst first.
type Localization struct {
	Machines []MachineScore
}

// Suspect returns the machine with the lowest score (the localization
// answer), or "" when no scores exist.
func (l Localization) Suspect() string {
	if len(l.Machines) == 0 {
		return ""
	}
	return l.Machines[0].Machine
}

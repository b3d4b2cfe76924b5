package manager

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The scoring pool is one helper set per process: every Manager posts its
// jobs (a row's pair loop, a fleet's training) to it, the posting goroutine
// always works its own job, and up to Workers−1 helpers join it, claiming
// small index ranges from the job's one atomic cursor until none is left —
// so a stretch of expensive pairs is shared out instead of setting the row's
// time, as a static split would let it. Progress never depends on a helper:
// a job nobody joins is a plain loop on its caller.
//
// A helper that has finished a job stays awake for the next one, polling
// for up to spinWindow before it parks, because rows come back to back and
// a parked goroutine takes tens to hundreds of microseconds to wake — a
// large share of a row that scores in about a millisecond. The poll is
// polite (see spin.again): it yields the OS thread on every iteration and
// the goroutine every goschedEvery, and parks at once when a yield comes
// back late, which means someone else wanted the CPU.

// The spin's three durations, each chosen by a table in EXPERIMENTS.md
// "Helpers that stay awake".
const (
	// spinWindow is how long an idle helper polls for a new job before it
	// parks ("The window": 200 µs left most of the wake delay, 1 ms and
	// 5 ms measured the same).
	spinWindow = time.Millisecond
	// goschedEvery is how often a polling helper yields its P to runnable
	// goroutines (the politeness rules' mixed-rw table: without it, the
	// correlate queries beside ingest waited out the window).
	goschedEvery = 10 * time.Microsecond
	// lateYield is how late a yield may come back before the helper takes
	// it as another thread wanting this CPU and parks (the politeness
	// rules' wide600 table, with one external CPU hog).
	lateYield = 50 * time.Microsecond
)

// claimChunk is how many indices one claim takes: the block of pairs
// scoreChunk warms together, which is what bounds it.
const claimChunk = 16

// osYield gives up the calling OS thread's CPU to any other runnable
// thread. It is nil where the platform offers no such call; helpers then
// never spin and park as soon as they run out of work.
var osYield func()

// poolJob is one run's work: fn over [0, n), claimed claimChunk at a time.
// A manager owns one and reuses it for every run, so posting allocates
// nothing.
type poolJob struct {
	n    int
	fn   func(lo, hi int)
	next atomic.Int64 // first unclaimed index

	// Guarded by helpers.mu: the open-list link, whether the job is on the
	// list, and how many more helpers may join it.
	link   *poolJob
	listed bool
	room   int

	active atomic.Int32   // helpers that joined and have not let go yet
	done   sync.WaitGroup // the same helpers, for a caller that stops polling
}

// helperSet is the process's helpers and the jobs posted to them.
type helperSet struct {
	mu       sync.Mutex
	wake     sync.Cond    // parked helpers wait here, on mu
	open     *poolJob     // posted jobs a helper may still join
	nOpen    atomic.Int32 // length of open, polled by spinning helpers
	started  int          // helper goroutines started; never shrinks
	parked   int          // helpers waiting on wake that no post has signalled
	spinning atomic.Int32 // helpers polling for a job
}

// helpers is the one helper set every manager in the process posts to.
var helpers helperSet

func init() { helpers.wake.L = &helpers.mu }

// run executes fn over [0, n) in chunks of claimChunk on the calling
// goroutine and on as many helpers as there are further chunks, at most
// workers−1 and GOMAXPROCS−1, and returns once every chunk is done and every
// helper that joined has let go of the job. Calls on one job must not
// overlap; Step's lock (and New's construction phase) serialize them.
func (j *poolJob) run(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	j.n, j.fn = n, fn
	j.next.Store(0)
	want := min((n-1)/claimChunk, workers-1)
	posted := want > 0 && j.post(want)
	j.work()
	if posted {
		j.retire()
	}
	j.fn = nil // fn holds the Manager; a helper's last job must not
}

// post offers the job to the helper set, starting helpers up to the current
// GOMAXPROCS−1 and waking parked ones for whatever the spinning ones cannot
// cover. It reports false when this process has no second P to offer.
func (j *poolJob) post(want int) bool {
	procs := runtime.GOMAXPROCS(0)
	if want = min(want, procs-1); want <= 0 {
		return false
	}
	h := &helpers
	h.mu.Lock()
	for ; h.started < procs-1; h.started++ {
		go helper()
	}
	j.room, j.listed, j.link = want, true, h.open
	h.open = j
	h.nOpen.Add(1)
	awake := min(want, int(h.spinning.Load()))
	obsHandoffSpinning.Add(uint64(awake))
	for w := want - awake; w > 0 && h.parked > 0; w-- {
		h.parked--
		h.wake.Signal()
		obsHandoffParked.Inc()
	}
	h.mu.Unlock()
	return true
}

// retire takes the job off the open list, so no helper joins it any more,
// and waits for the helpers that did to let go: polling, since they are
// finishing at most one chunk each, and blocking only if that runs long.
func (j *poolJob) retire() {
	h := &helpers
	h.mu.Lock()
	if j.listed {
		h.unlistLocked(j)
	}
	h.mu.Unlock()
	if osYield != nil {
		var s spin
		for j.active.Load() != 0 && s.again() {
		}
	}
	j.done.Wait()
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

// helper is one helper goroutine; it lives as long as the process.
func helper() {
	for {
		j := takeJob()
		j.work()
		// Done before the count drops: a caller that saw the count at zero
		// then finds the WaitGroup drained and does not block in Wait.
		j.done.Done()
		j.active.Add(-1)
	}
}

// takeJob returns the next job to join: polling for one while the spin
// allows, then parked until a post wakes it.
func takeJob() *poolJob {
	h := &helpers
	for {
		if osYield != nil {
			if h.spinning.Add(1) <= int32(runtime.GOMAXPROCS(0)-1) {
				j := pollJob()
				h.spinning.Add(-1)
				if j != nil {
					return j
				}
			} else {
				h.spinning.Add(-1)
			}
		}
		h.mu.Lock()
		j := h.joinLocked()
		if j == nil {
			h.parked++
			h.wake.Wait()
			j = h.joinLocked()
		}
		h.mu.Unlock()
		if j != nil {
			return j
		}
	}
}

// pollJob polls the open list until it joins a job or the spin ends.
func pollJob() *poolJob {
	h := &helpers
	var s spin
	for {
		if h.nOpen.Load() > 0 {
			h.mu.Lock()
			j := h.joinLocked()
			h.mu.Unlock()
			if j != nil {
				return j
			}
		}
		if !s.again() {
			return nil
		}
	}
}

// joinLocked joins the first open job with chunks left, dropping from the
// list the exhausted jobs it passes over and a job it fills. Callers hold
// h.mu.
func (h *helperSet) joinLocked() *poolJob {
	for h.open != nil {
		j := h.open
		if j.next.Load() >= int64(j.n) {
			h.unlistLocked(j)
			continue
		}
		if j.room--; j.room == 0 {
			h.unlistLocked(j)
		}
		j.active.Add(1)
		j.done.Add(1)
		return j
	}
	return nil
}

// unlistLocked takes j off the open list. Callers hold h.mu.
func (h *helperSet) unlistLocked(j *poolJob) {
	for p := &h.open; *p != nil; p = &(*p).link {
		if *p == j {
			*p, j.link, j.listed = j.link, nil, false
			h.nOpen.Add(-1)
			return
		}
	}
}

// spin paces a polling loop by the three rules of politeness: yield the OS
// thread on every iteration, yield the goroutine's P every goschedEvery,
// and stop at once when a yield comes back more than lateYield late. Its
// zero value starts a window of spinWindow at the first call to again.
type spin struct {
	start, gosched time.Time
}

// again yields and reports whether the poller may poll once more: false
// when the window is over or the yield came back late, and the poller
// should block instead.
func (s *spin) again() bool {
	now := time.Now()
	if s.start.IsZero() {
		s.start, s.gosched = now, now
	}
	if now.Sub(s.start) > spinWindow {
		return false
	}
	if now.Sub(s.gosched) >= goschedEvery {
		runtime.Gosched()
		s.gosched = now
	}
	osYield()
	return time.Since(now) <= lateYield
}

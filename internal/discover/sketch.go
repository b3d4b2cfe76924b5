package discover

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Sketch is a constant-space streaming estimate of the correlation between
// one pair of measurement series, with best-lag detection over a small lag
// window. It keeps exponentially-decayed co-moments (weight, sums, squared
// sums, and one cross-sum per lag in [−L, +L]) plus value rings of the last
// L+1 samples for the lagged products — so an Update is O(L) and the sketch
// never stores the stream.
//
// A non-finite input (NaN/±Inf) on either side is a monitoring gap: the
// decayed sums age one step but nothing is added, and the value rings are
// cleared so no lagged product ever spans the gap. All arithmetic is a
// deterministic function of the input sequence.
type Sketch struct {
	lags  int     // L: max |lag| scanned
	decay float64 // γ: per-sample decay of every sum

	w, sx, sy, sxx, syy float64
	sxy                 []float64 // 2L+1 entries; index i holds lag i−L

	// Rings of the last L+1 accepted samples (newest at head), with
	// validity flags (false before warm-up and after gaps).
	xr, yr   []float64
	xok, yok []bool
	head     int

	n uint64 // total accepted (non-gap) samples, undecayed
}

// NewSketch builds a sketch scanning lags in [−lags, +lags] with the given
// per-sample decay γ ∈ (0, 1]. lags < 0 is treated as 0; a decay outside
// (0, 1] falls back to 1 (no forgetting).
func NewSketch(lags int, decay float64) *Sketch {
	if lags < 0 {
		lags = 0
	}
	if !(decay > 0 && decay <= 1) {
		decay = 1
	}
	return &Sketch{
		lags:  lags,
		decay: decay,
		sxy:   make([]float64, 2*lags+1),
		xr:    make([]float64, lags+1),
		yr:    make([]float64, lags+1),
		xok:   make([]bool, lags+1),
		yok:   make([]bool, lags+1),
	}
}

// Lags returns the sketch's lag window half-width L.
func (s *Sketch) Lags() int { return s.lags }

// Update feeds one synchronized observation of the pair. Non-finite values
// are gaps (see the type comment).
func (s *Sketch) Update(x, y float64) {
	g := s.decay
	s.w *= g
	s.sx *= g
	s.sy *= g
	s.sxx *= g
	s.syy *= g
	for i := range s.sxy {
		s.sxy[i] *= g
	}
	if !finite(x) || !finite(y) {
		s.clearRings()
		return
	}
	// Push the sample, then add every lagged product available in the
	// rings. at(0) is the sample just pushed.
	s.head = (s.head + 1) % len(s.xr)
	s.xr[s.head], s.xok[s.head] = x, true
	s.yr[s.head], s.yok[s.head] = y, true
	s.w++
	s.sx += x
	s.sy += y
	s.sxx += x * x
	s.syy += y * y
	for lag := -s.lags; lag <= s.lags; lag++ {
		i := lag + s.lags
		if lag >= 0 {
			// x_t against y_{t−lag}: y's past leads x.
			if v, ok := s.yAt(lag); ok {
				s.sxy[i] += x * v
			}
		} else {
			// x_{t−|lag|} against y_t: x's past leads y.
			if v, ok := s.xAt(-lag); ok {
				s.sxy[i] += v * y
			}
		}
	}
	s.n++
}

// xAt returns the x sample from `back` steps ago (0 = newest).
func (s *Sketch) xAt(back int) (float64, bool) {
	i := (s.head - back + len(s.xr)) % len(s.xr)
	return s.xr[i], s.xok[i]
}

// yAt returns the y sample from `back` steps ago (0 = newest).
func (s *Sketch) yAt(back int) (float64, bool) {
	i := (s.head - back + len(s.yr)) % len(s.yr)
	return s.yr[i], s.yok[i]
}

func (s *Sketch) clearRings() {
	for i := range s.xok {
		s.xok[i] = false
		s.yok[i] = false
	}
}

// EffSamples returns the decayed effective sample weight — the number of
// recent samples the sums effectively cover. It converges to 1/(1−γ) on a
// gapless stream and shrinks through gaps.
func (s *Sketch) EffSamples() float64 { return s.w }

// Samples returns the total accepted (non-gap) samples ever observed.
func (s *Sketch) Samples() uint64 { return s.n }

// Corr returns the best Pearson estimate over the lag window and the lag
// it was found at. The estimate at each lag uses the global decayed means
// as the centering term — exact at lag 0, a documented approximation at
// |lag| > 0 (the means of the lag-aligned subsequences are assumed equal
// to the stream means). Candidates are scanned from lag 0 outward, so
// smaller |lag| wins ties deterministically (and +d is preferred over −d).
// Degenerate sketches (no weight, zero variance on either side) return
// (0, 0). The result is always finite and clamped to [−1, 1].
func (s *Sketch) Corr() (r float64, lag int) {
	vx := s.w*s.sxx - s.sx*s.sx
	vy := s.w*s.syy - s.sy*s.sy
	if !(vx > 0) || !(vy > 0) {
		return 0, 0
	}
	den := math.Sqrt(vx) * math.Sqrt(vy)
	if !finite(den) || den == 0 {
		return 0, 0
	}
	best, bestLag := 0.0, 0
	for d := 0; d <= s.lags; d++ {
		for _, l := range [2]int{d, -d} {
			if l == -0 && d == 0 && l != d {
				continue
			}
			if d != 0 || l == 0 {
				c := clamp1((s.w*s.sxy[l+s.lags] - s.sx*s.sy) / den)
				if math.Abs(c) > math.Abs(best) {
					best, bestLag = c, l
				}
			}
			if d == 0 {
				break // lag 0 only once
			}
		}
	}
	return best, bestLag
}

// sketchState is the gob wire form of a Sketch.
type sketchState struct {
	Lags     int
	Decay    float64
	W        float64
	SX, SY   float64
	SXX, SYY float64
	SXY      []float64
	XR, YR   []float64
	XOK, YOK []bool
	Head     int
	N        uint64
}

// GobEncode implements gob.GobEncoder so sketches nest inside larger
// serialized discovery state.
func (s *Sketch) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	st := sketchState{
		Lags: s.lags, Decay: s.decay,
		W: s.w, SX: s.sx, SY: s.sy, SXX: s.sxx, SYY: s.syy,
		SXY: s.sxy, XR: s.xr, YR: s.yr, XOK: s.xok, YOK: s.yok,
		Head: s.head, N: s.n,
	}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Sketch) GobDecode(b []byte) error {
	var st sketchState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if st.Lags < 0 || len(st.SXY) != 2*st.Lags+1 ||
		len(st.XR) != st.Lags+1 || len(st.YR) != st.Lags+1 ||
		len(st.XOK) != st.Lags+1 || len(st.YOK) != st.Lags+1 ||
		st.Head < 0 || st.Head > st.Lags {
		return fmt.Errorf("discover: corrupt sketch state")
	}
	*s = Sketch{
		lags: st.Lags, decay: st.Decay,
		w: st.W, sx: st.SX, sy: st.SY, sxx: st.SXX, syy: st.SYY,
		sxy: st.SXY, xr: st.XR, yr: st.YR, xok: st.XOK, yok: st.YOK,
		head: st.Head, n: st.N,
	}
	return nil
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func clamp1(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v > 1:
		return 1
	case v < -1:
		return -1
	default:
		return v
	}
}

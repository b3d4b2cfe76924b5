package core

import (
	"fmt"
	"math"
	"sync"
)

// KernelKind selects the spatial-closeness kernel used for the prior
// distribution and the per-observation likelihood (paper §4.2: transition
// probability decreases exponentially with cell distance).
type KernelKind int

const (
	// KernelHarmonic is the paper's kernel, recovered exactly from the
	// published Figure 5 matrix: weight(Δx, Δy) = 2 / (w^Δx + w^Δy),
	// i.e. the reciprocal of the mean per-axis decay.
	KernelHarmonic KernelKind = iota + 1
	// KernelProduct decays with the Manhattan distance:
	// weight(Δx, Δy) = w^−(Δx+Δy). Ablation alternative.
	KernelProduct
	// KernelUniform gives every cell equal weight — it removes the
	// spatial-closeness assumption entirely (ablation control).
	KernelUniform
)

// String returns the kernel's name.
func (k KernelKind) String() string {
	switch k {
	case KernelHarmonic:
		return "harmonic"
	case KernelProduct:
		return "product"
	case KernelUniform:
		return "uniform"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// Kernel evaluates spatial-closeness weights between cells of a grid. It
// precomputes the per-axis decay powers and the log of every weight, so
// evaluation is a table lookup.
//
// The log table is mirrored: row dx holds log Weight(dx, |d|) for every
// signed y distance d in (−ny, ny), so the log weights a grid row of ny′ ≤ ny
// cells takes out of column yc are one contiguous slice of it, and the row
// update reads them with no absolute value per cell. A table covers
// nx·(2ny−1) entries; a published one is at most
// maxSharedAxis·(2·maxSharedAxis−1)·8 B = 65 024 B.
//
// A Kernel is immutable and its entries are a pure function of (dx, dy),
// kind and w, so the process publishes one per (kind, w) and every model
// reads that table — l(l−1)/2 private copies of the same numbers would each
// be a cold stream in the pair loop. A grid that outgrows it gets a larger
// copy published in its place (covering); holders of the smaller one keep
// reading it, and read the same bits.
type Kernel struct {
	kind   KernelKind
	w      float64
	logW   float64
	nx, ny int       // the tables cover distances dx < nx, |dy| < ny
	pow    []float64 // w^d for d < max(nx, ny)
	// sym is the mirrored log table: log Weight(dx, |d|) at
	// sym[dx*(2ny−1) + ny−1 + d]. It is the hot path of every matrix update.
	sym []float64
}

// Published tables cover whole multiples of sharedAxisStep per axis, so
// grids that differ or grow by an interval or two share one table, not a
// generation of them. What is published is bounded whatever a checkpoint
// claims: a grid beyond maxSharedAxis, or a (kind, w) beyond the first
// maxSharedKernels, gets an unpublished table from the same constructor.
const (
	sharedAxisStep   = 16
	maxSharedAxis    = 64
	maxSharedKernels = 16
)

type kernelKey struct {
	kind KernelKind
	w    uint64 // Float64bits: a NaN decay (uniform kernel) is still one key
}

var published = struct {
	sync.Mutex
	kernels map[kernelKey]*Kernel
}{kernels: make(map[kernelKey]*Kernel)}

// NewKernel returns a kernel covering an nx×ny grid with decay rate w > 1
// (the paper's w; 2 reproduces Figure 5 exactly): the process's published
// kernel for (kind, w) when the grid fits a shared table.
func NewKernel(kind KernelKind, w float64, nx, ny int) (*Kernel, error) {
	switch kind {
	case KernelHarmonic, KernelProduct, KernelUniform:
	default:
		return nil, fmt.Errorf("unknown kernel kind %d", int(kind))
	}
	if !(w > 1) && kind != KernelUniform { // NaN included
		return nil, fmt.Errorf("kernel decay w = %g: must be > 1", w)
	}
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("kernel over %dx%d grid: empty", nx, ny)
	}
	return kernelFor(kind, w, nx, ny), nil
}

// covering returns a kernel of k's kind and decay whose tables cover an
// nx×ny grid: k itself when they do.
func (k *Kernel) covering(nx, ny int) *Kernel {
	if k.nx >= nx && k.ny >= ny {
		return k
	}
	return kernelFor(k.kind, k.w, nx, ny)
}

func kernelFor(kind KernelKind, w float64, nx, ny int) *Kernel {
	if nx > maxSharedAxis || ny > maxSharedAxis {
		return buildKernel(kind, w, nx, ny)
	}
	key := kernelKey{kind, math.Float64bits(w)}
	published.Lock()
	defer published.Unlock()
	k := published.kernels[key]
	if k != nil && k.nx >= nx && k.ny >= ny {
		return k
	}
	if k == nil && len(published.kernels) >= maxSharedKernels {
		return buildKernel(kind, w, nx, ny)
	}
	if k != nil {
		nx, ny = max(nx, k.nx), max(ny, k.ny)
	}
	roundUp := func(n int) int { return (n + sharedAxisStep - 1) / sharedAxisStep * sharedAxisStep }
	k = buildKernel(kind, w, roundUp(nx), roundUp(ny))
	published.kernels[key] = k
	return k
}

func buildKernel(kind KernelKind, w float64, nx, ny int) *Kernel {
	k := &Kernel{kind: kind, w: w, logW: math.Log(w), nx: nx, ny: ny}
	k.pow = make([]float64, max(nx, ny))
	k.pow[0] = 1
	for i := 1; i < len(k.pow); i++ {
		k.pow[i] = k.pow[i-1] * w
	}
	stride := 2*ny - 1
	k.sym = make([]float64, nx*stride)
	for dx := 0; dx < nx; dx++ {
		mid := k.sym[dx*stride+ny-1:]
		for d := 0; d < ny; d++ {
			mid[d] = k.logWeightSlow(dx, d)
			k.sym[dx*stride+ny-1-d] = mid[d]
		}
	}
	return k
}

// Kind returns the kernel kind.
func (k *Kernel) Kind() KernelKind { return k.kind }

// W returns the decay rate.
func (k *Kernel) W() float64 { return k.w }

// Weight returns the unnormalized closeness weight for per-axis cell
// distances (dx, dy); the weight is 1 at distance zero and decays with
// distance for the non-uniform kernels.
func (k *Kernel) Weight(dx, dy int) float64 {
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	switch k.kind {
	case KernelUniform:
		return 1
	case KernelProduct:
		return 1 / (k.pow[dx] * k.pow[dy])
	default: // KernelHarmonic
		return 2 / (k.pow[dx] + k.pow[dy])
	}
}

// LogWeight returns log(Weight(dx, dy)) via the cached table.
func (k *Kernel) LogWeight(dx, dy int) float64 {
	if dx < 0 {
		dx = -dx
	}
	return k.sym[dx*(2*k.ny-1)+k.ny-1+dy]
}

// logRow returns the log weights out of column yc for the ny cells of one
// grid row at x distance dx: entry y is log Weight(dx, y−yc).
func (k *Kernel) logRow(dx, yc, ny int) []float64 {
	if dx < 0 {
		dx = -dx
	}
	at := dx*(2*k.ny-1) + k.ny - 1 - yc
	return k.sym[at : at+ny]
}

// AddLogRow adds log(Weight(xh−x, yh−y)) for every cell (x, y) of an
// nx×ny grid, row-major, into dst, and returns the maximum entry of dst
// after the addition. It is the bulk form of LogWeight used by the matrix
// update hot path.
func (k *Kernel) AddLogRow(dst []float64, xh, yh, nx, ny int) float64 {
	mx, _ := k.sweep(dst, xh, yh, nx, ny, 0, 1)
	return mx
}

// AddLogRowScaled adds m·log(Weight(xh−x, yh−y)) for every cell (x, y) of
// an nx×ny grid, row-major, into dst, and returns the maximum entry of dst
// after the addition. It coalesces m repeated identical observations of the
// same destination cell into a single pass: in exact arithmetic the result
// equals m sequential AddLogRow calls (the per-call re-centering the caller
// performs is a row-constant shift that cancels under softmax), and the
// float rounding is deterministic, so every caller that defers updates this
// way lands on the same bits.
func (k *Kernel) AddLogRowScaled(dst []float64, xh, yh, nx, ny int, m float64) float64 {
	mx, _ := k.sweep(dst, xh, yh, nx, ny, 0, m)
	return mx
}

// FillLogRow writes log(Weight(xi−x, yi−y)) for every cell (x, y) of an
// nx×ny grid, row-major, into dst — the bulk form used to seed prior rows.
// Each grid row is one slice of the mirrored table, so there is no
// arithmetic left to do: it is a copy.
func (k *Kernel) FillLogRow(dst []float64, xi, yi, nx, ny int) {
	for x := 0; x < nx; x++ {
		copy(dst[x*ny:(x+1)*ny], k.logRow(x-xi, yi, ny))
	}
}

// sweep is the one pass every kernel-Bayes row update makes. Over an nx×ny
// row, row-major, it computes for every cell j = (x, y)
//
//	p := row[j] − shift
//	row[j] = p + m·log Weight(x−xc, y−yc)
//
// and returns the first maximal stored entry and how many cells rank ahead
// of the centre c = (xc, yc) among the p: the cells before c with p ≥ p_c and
// those after it with p > p_c, which is RankInRow's tie-break, so π(c) is
// one more.
//
// Each entry keeps its own two float operations — x − (+0) is x, a −0
// included, and 1·t is t — so with shift = +0 and m = 1 the entries are a
// plain add's, and the maximum is exactly what a scalar `if v > mx` scan
// from −∞ returns. The scan starts from the centre's new value instead, so
// only cells that beat the centre move it — few when the centre is a likely
// cell. Any cell equal to a nonzero start has the start's bits, so that
// cannot change the answer; a zero start is replaced by −∞, since which
// zero, +0 or −0, comes first decides the sign, and so is a NaN, which
// nothing beats. p ≥ p_c is asked as p > the float below p_c, so every cell
// costs one branch-free comparison for the count and one rarely taken
// branch for the maximum. That is the same question unless p_c is −∞; rows
// are finite — LoadModel refuses any other entry and no update makes one.
// The pass itself is sweepRows: one AVX2 kernel call on amd64, the Go loop
// elsewhere, the same bits either way.
func (k *Kernel) sweep(row []float64, xc, yc, nx, ny int, shift, m float64) (mx float64, ahead int) {
	pc := row[xc*ny+yc] - shift
	if mx = pc + m*k.sym[k.ny-1]; mx == 0 || mx != mx {
		mx = math.Inf(-1)
	}
	below := math.Nextafter(pc, math.Inf(-1))
	// Grid row x's weights are logRow(x−xc, yc, ny).
	return sweepRows(row[:nx*ny], k.sym, nx, ny, 2*k.ny-1, k.ny-1-yc, xc, yc, shift, m, below, pc, mx)
}

func (k *Kernel) logWeightSlow(dx, dy int) float64 {
	switch k.kind {
	case KernelUniform:
		return 0
	case KernelProduct:
		return -float64(dx+dy) * k.logW
	default:
		sum := k.pow[dx] + k.pow[dy]
		if math.IsInf(sum, 1) {
			// w^max(dx, dy) overflowed; the same weight in log space keeps
			// every entry, and so every stored row, finite.
			near, far := min(dx, dy), max(dx, dy)
			return math.Ln2 - float64(far)*k.logW - math.Log1p(math.Pow(k.w, float64(near-far)))
		}
		return math.Log(2 / sum)
	}
}

// StepPenalty returns the log-weight drop per one-cell step away, used to
// extrapolate posterior mass onto freshly grown cells.
func (k *Kernel) StepPenalty() float64 {
	if k.kind == KernelUniform {
		return 0
	}
	return k.logW
}

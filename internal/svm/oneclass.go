package svm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sentomist/internal/stats"
)

// GramMode selects how the solver accesses the kernel matrix.
type GramMode uint8

const (
	// GramCached, the default, never materializes the matrix: kernel
	// columns are computed on demand and memoized in an LRU bounded by
	// CacheBytes. The solver reads only the columns it needs (the initial
	// mass, each working pair, the support vectors), which on mined
	// interval batches is a fraction of the l² cells a full build pays for.
	GramCached GramMode = iota
	// GramDense materializes the full l×l matrix; problems past the dense
	// budget are rejected with an error instead of attempting the
	// allocation. It is the reference the cached path is tested against:
	// the trained model is bit-identical either way.
	GramDense
)

// DefaultCacheBytes is the kernel column cache budget used when CacheBytes
// is zero.
const DefaultCacheBytes = 256 << 20

// denseGramLimit bounds GramDense's l×l allocation (bytes); problems past
// it error. A variable so tests can lower it without 50k-sample inputs.
var denseGramLimit int64 = 1 << 30

// Config parameterizes one-class training.
type Config struct {
	// Nu is the ν parameter: an upper bound on the fraction of training
	// points treated as outliers and a lower bound on the fraction of
	// support vectors. Must lie in (0, 1].
	Nu float64
	// Kernel defaults to RBF with gamma = 1/dim when nil.
	Kernel Kernel
	// Eps is the KKT violation tolerance; defaults to 1e-4.
	Eps float64
	// MaxIter bounds SMO iterations; defaults to 100·l (at least 10000).
	MaxIter int
	// Parallelism bounds the goroutines building the Gram matrix (dense
	// path) or filling cache-miss columns (cached path): 0 selects
	// GOMAXPROCS, 1 forces sequential construction. The resulting model
	// is identical either way — each cell is computed independently.
	Parallelism int
	// Gram selects cached (default) or dense kernel-matrix access.
	// Training is bit-identical across modes and cache sizes: the cache
	// memoizes the very float64 evaluations the dense build stores.
	Gram GramMode
	// CacheBytes bounds the cached path's column LRU (0 selects
	// DefaultCacheBytes). At least two columns are always kept resident.
	CacheBytes int64
}

func (cfg Config) workers() int {
	if cfg.Parallelism > 0 {
		return cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (cfg Config) cacheBytes() int64 {
	if cfg.CacheBytes > 0 {
		return cfg.CacheBytes
	}
	return DefaultCacheBytes
}

// denseGramOversized reports whether an l×l float64 matrix would overflow
// int or exceed the dense budget.
func denseGramOversized(l int) bool {
	if l == 0 {
		return false
	}
	return int64(l) > denseGramLimit/(8*int64(l))
}

// useCache decides the Gram access path for an l-sample problem.
func (cfg Config) useCache(l int) (bool, error) {
	if cfg.Gram != GramDense {
		return true, nil
	}
	if denseGramOversized(l) {
		return false, fmt.Errorf("svm: gram matrix (l=%d) exceeds the %d MiB dense budget; use GramCached with a CacheBytes bound", l, denseGramLimit>>20)
	}
	return false, nil
}

// Model is a trained one-class SVM.
type Model struct {
	kernel Kernel
	// Support vectors in exactly one representation (dense when trained
	// via Train, sparse via TrainSparse), with their dual coefficients
	// (only αᵢ > 0 kept).
	sv       [][]float64
	svSparse []stats.Sparse
	alpha    []float64
	rho      float64
	// trainDec caches f(xₖ) for every training sample, computed from
	// the Gram matrix at training time (see TrainingDecisions).
	trainDec []float64

	// Training diagnostics.
	Iters      int
	NumSV      int
	NumBoundSV int
	// Groups is the number of distinct sample vectors the solver ran
	// over (one per sample on the dense-sample path, which does not
	// deduplicate).
	Groups int
	// Cached-path diagnostics: column requests served from the LRU vs
	// computed, and the cache capacity in columns. All zero on the dense
	// path.
	CacheHits   int64
	CacheMisses int64
	CacheCols   int
}

// ErrNoData is returned when Train is called without samples.
var ErrNoData = errors.New("svm: no training samples")

// Train fits a one-class ν-SVM on the samples. The sample slices are
// referenced, not copied; callers must not mutate them afterwards.
func Train(samples [][]float64, cfg Config) (*Model, error) {
	l := len(samples)
	if l == 0 {
		return nil, ErrNoData
	}
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
	dim := len(samples[0])
	for i, s := range samples {
		if len(s) != dim {
			return nil, fmt.Errorf("svm: sample %d has %d dims, want %d", i, len(s), dim)
		}
	}
	kernel := cfg.Kernel
	if kernel == nil {
		kernel = defaultKernel(dim)
	}
	cached, err := cfg.useCache(l)
	if err != nil {
		return nil, err
	}
	var p gramProvider
	if grp := singletons(l); cached {
		p = newColCache(&denseColSource{samples: samples, kernel: kernel, workers: cfg.workers(), grp: grp}, cfg.cacheBytes())
	} else {
		p = denseMatrix{q: gramDense(samples, kernel, cfg.workers()), grp: grp}
	}
	m, err := solve(p, l, cfg, kernel)
	if err != nil {
		return nil, err
	}
	for k := 0; k < l; k++ {
		if m.alpha[k] > 0 {
			m.sv = append(m.sv, samples[k])
		}
	}
	return finish(m)
}

// TrainSparse fits a one-class ν-SVM on sparse samples. Kernel evaluation
// costs O(nnz) per pair instead of O(dim), so training scales with how much
// of the space each sample actually touches. The built-in kernels evaluate
// sparse pairs bit-identically to their dense form, so the model —
// coefficients, ρ, and every decision value — matches Train on the
// densified samples exactly. A non-nil cfg.Kernel that does not implement
// SparseKernel falls back to densifying the samples and calling Train.
func TrainSparse(samples []stats.Sparse, cfg Config) (*Model, error) {
	l := len(samples)
	if l == 0 {
		return nil, ErrNoData
	}
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
	dim := samples[0].Dim
	for i, s := range samples {
		if s.Dim != dim {
			return nil, fmt.Errorf("svm: sample %d has %d dims, want %d", i, s.Dim, dim)
		}
	}
	kernel := cfg.Kernel
	if kernel == nil {
		kernel = defaultKernel(dim)
	}
	sk, ok := kernel.(SparseKernel)
	if !ok {
		dense := make([][]float64, l)
		for i, s := range samples {
			dense[i] = s.Dense()
		}
		return Train(dense, cfg)
	}
	cached, err := cfg.useCache(l)
	if err != nil {
		return nil, err
	}
	var p gramProvider
	if cached {
		p = newColCache(newSparseColSource(samples, sk, cfg.workers()), cfg.cacheBytes())
	} else {
		p = gramSparse(samples, sk, cfg.workers())
	}
	m, err := solve(p, l, cfg, kernel)
	if err != nil {
		return nil, err
	}
	for k := 0; k < l; k++ {
		if m.alpha[k] > 0 {
			m.svSparse = append(m.svSparse, samples[k])
		}
	}
	return finish(m)
}

func defaultKernel(dim int) Kernel {
	g := 1.0
	if dim > 0 {
		g = 1 / float64(dim)
	}
	return RBF{Gamma: g}
}

// gramDense builds the full symmetric kernel matrix. Rows of the lower
// triangle are handed to workers via an atomic counter; cells are written
// to disjoint locations, so the result is independent of scheduling.
func gramDense(samples [][]float64, kernel Kernel, workers int) [][]float64 {
	return buildGram(len(samples), workers, func(i, j int) float64 {
		return kernel.Eval(samples[i], samples[j])
	})
}

// gramSparse is gramDense over sparse samples, with duplicate collapsing:
// one kernel evaluation per pair of group representatives, g²/2 instead of
// l²/2, stored as the g×g block the solver reads through group columns.
func gramSparse(samples []stats.Sparse, kernel SparseKernel, workers int) denseMatrix {
	src := newSparseColSource(samples, kernel, workers)
	reps := src.grp.head
	q := buildGram(len(reps), workers, func(a, b int) float64 {
		return kernel.EvalSparse(samples[reps[a]], samples[reps[b]])
	})
	return denseMatrix{q: q, grp: &src.grp}
}

func buildGram(l, workers int, eval func(i, j int) float64) [][]float64 {
	q := make([][]float64, l)
	cells := make([]float64, l*l)
	for i := range q {
		q[i] = cells[i*l : (i+1)*l : (i+1)*l]
	}
	fill := func(i int) {
		for j := 0; j <= i; j++ {
			v := eval(i, j)
			q[i][j] = v
			q[j][i] = v
		}
	}
	if workers <= 1 || l < 2 {
		for i := 0; i < l; i++ {
			fill(i)
		}
		return q
	}
	// Row i of the lower triangle holds i+1 cells, so handing out bare
	// rows gives late workers quadratically heavier work. Hand out the
	// pair (t, l−1−t) instead: every unit covers (t+1) + (l−t) = l+1
	// cells, so the atomic counter deals near-identical loads no matter
	// which worker draws which ticket. Cells are still written to
	// disjoint locations — output is unchanged.
	half := (l + 1) / 2
	if workers > half {
		workers = half
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= half {
					return
				}
				fill(t)
				if other := l - 1 - t; other != t {
					fill(other)
				}
			}
		}()
	}
	wg.Wait()
	return q
}

// solve runs the SMO optimizer over a Gram-column provider and returns a
// partially-filled model (alpha, rho, diagnostics); the caller attaches
// the support-vector representation.
//
// The solver touches the matrix only through p.col, and every sum it forms
// accumulates in the same element order as a per-sample solver over the
// full l×l matrix would, so the result is bit-identical whether p
// materializes the matrix or memoizes columns on demand at any cache size.
func solve(p gramProvider, l int, cfg Config, kernel Kernel) (*Model, error) {
	return solveFrom(p, l, cfg, kernel, nil)
}

// solveFrom is solve with an optional warm start: when warm is non-nil it
// must be a feasible point of the dual (0 ≤ αᵢ ≤ 1/(νl), Σα = 1, length l)
// and optimization starts there instead of at the LIBSVM prefix
// initialization. A warm start never changes what termination means — the
// full problem satisfies the same ε tolerance — it only changes how many
// iterations reaching it takes, so a warm start at the previous optimum of
// the *same* problem converges immediately to the bit-identical solution,
// and a warm start on a grown problem lands on the same ε-optimum a cold
// solve finds (equal up to solver tolerance, not bitwise).
//
// α is per sample, but the gradient and the training decisions are kept
// per duplicate group (p.groups()). That is exact, not an approximation:
// samples in one group have bitwise-equal Q rows, so a per-sample solver
// would feed every member's gradient the same additions in the same order,
// and the members' values never differ. The working-set scan therefore
// visits groups, each offering its lowest member index that may receive
// mass and its lowest that may give it, and picks by (gradient, index):
// exactly the first strict minimum/maximum a scan over all l samples finds.
func solveFrom(p gramProvider, l int, cfg Config, kernel Kernel, warm []float64) (*Model, error) {
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
	eps := cfg.Eps
	if eps <= 0 {
		eps = 1e-4
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100 * l
		if maxIter < 10000 {
			maxIter = 10000
		}
	}

	c := 1 / (cfg.Nu * float64(l))
	alpha := make([]float64, l)
	if warm != nil {
		if len(warm) != l {
			return nil, fmt.Errorf("svm: warm start has %d coefficients, want %d", len(warm), l)
		}
		copy(alpha, warm)
	} else {
		// LIBSVM-style initialization: put total mass 1 on the first ⌈νl⌉
		// points, the last one fractionally.
		remaining := 1.0
		for i := 0; i < l && remaining > 0; i++ {
			a := math.Min(c, remaining)
			alpha[i] = a
			remaining -= a
		}
	}

	// Gradient of ½αᵀQα is Qα: only columns carrying mass contribute.
	// Walking them in ascending sample order feeds each group's gradient
	// the same additions in the same order as a row-based loop over the
	// full matrix (Q is symmetric cell-for-cell by construction).
	grp := p.groups()
	grad := make([]float64, grp.count())
	for j := 0; j < l; j++ {
		if alpha[j] <= 0 {
			continue
		}
		cj := p.col(j)
		aj := alpha[j]
		for b := range grad {
			grad[b] += cj[b] * aj
		}
	}

	// up[b] and down[b] are group b's lowest member that may receive mass
	// (α < C) and that may give it (α > 0), or -1. Members are linked in
	// ascending order, so after a member's α changes, at most that member
	// joins or leaves, and a leaving lowest member hands over to the next
	// qualifying one after it.
	canUp := func(k int) bool { return alpha[k] < c-1e-15 }
	canDown := func(k int) bool { return alpha[k] > 1e-15 }
	firstFrom := func(k int, ok func(int) bool) int {
		for k >= 0 && !ok(k) {
			k = grp.next[k]
		}
		return k
	}
	up, down := make([]int, grp.count()), make([]int, grp.count())
	for b, k := range grp.head {
		up[b], down[b] = firstFrom(k, canUp), firstFrom(k, canDown)
	}
	refresh := func(low []int, k int, ok func(int) bool) {
		b := grp.of[k]
		switch cur := low[b]; {
		case cur == k && !ok(k):
			low[b] = firstFrom(grp.next[k], ok)
		case ok(k) && (cur < 0 || k < cur):
			low[b] = k
		}
	}

	iters := 0
	for ; iters < maxIter; iters++ {
		// Working-set selection (maximal violating pair):
		// i ∈ {α < C} minimizing Gᵢ, j ∈ {α > 0} maximizing Gⱼ, ties to
		// the lowest sample index.
		i, j := -1, -1
		gmin, gmax := math.Inf(1), math.Inf(-1)
		for b, gb := range grad {
			if k := up[b]; k >= 0 && (gb < gmin || gb == gmin && k < i) {
				gmin, i = gb, k
			}
			if k := down[b]; k >= 0 && (gb > gmax || gb == gmax && k < j) {
				gmax, j = gb, k
			}
		}
		if i < 0 || j < 0 || gmax-gmin < eps {
			break
		}

		ci, cj := p.col(i), p.col(j)
		bi, bj := grp.of[i], grp.of[j]
		eta := ci[bi] + cj[bj] - 2*ci[bj]
		var delta float64
		if eta > 1e-12 {
			delta = (gmax - gmin) / eta
		} else {
			delta = math.Inf(1)
		}
		if room := c - alpha[i]; delta > room {
			delta = room
		}
		if delta > alpha[j] {
			delta = alpha[j]
		}
		if delta <= 0 {
			break
		}
		alpha[i] += delta
		alpha[j] -= delta
		for b := range grad {
			grad[b] += delta * (ci[b] - cj[b])
		}
		for _, k := range [2]int{i, j} {
			refresh(up, k, canUp)
			refresh(down, k, canDown)
		}
	}

	// ρ: at the optimum, free SVs satisfy Gᵢ = ρ. The sum runs per sample,
	// in sample order: its rounding depends on it.
	var freeSum float64
	var freeCnt, bound int
	lo, hi := math.Inf(-1), math.Inf(1)
	for k := 0; k < l; k++ {
		gk := grad[grp.of[k]]
		switch {
		case alpha[k] <= 1e-12:
			if gk < hi {
				hi = gk
			}
		case alpha[k] >= c-1e-12:
			bound++
			if gk > lo {
				lo = gk
			}
		default:
			freeSum += gk
			freeCnt++
		}
	}
	var rho float64
	if freeCnt > 0 {
		rho = freeSum / float64(freeCnt)
	} else {
		switch {
		case math.IsInf(lo, -1):
			rho = hi
		case math.IsInf(hi, 1):
			rho = lo
		default:
			rho = (lo + hi) / 2
		}
	}

	// Zero the below-threshold coefficients so the caller's SV filter
	// and the Gram-reuse scoring below agree on the SV set.
	for k := range alpha {
		if !(alpha[k] > 1e-12) {
			alpha[k] = 0
		}
	}

	// Score every group from its cached Gram column. Walking the SV
	// columns in ascending training order feeds each sum the same
	// additions in the same order as fresh per-row evaluation, so the
	// scores reproduce Decision bit-for-bit.
	dec := make([]float64, grp.count())
	for i, ai := range alpha {
		if ai == 0 {
			continue
		}
		ci := p.col(i)
		for b := range dec {
			dec[b] += ai * ci[b]
		}
	}
	trainDec := make([]float64, l)
	for k, b := range grp.of {
		trainDec[k] = dec[b] - rho
	}

	m := &Model{
		kernel:     kernel,
		alpha:      alpha,
		rho:        rho,
		trainDec:   trainDec,
		Iters:      iters,
		NumBoundSV: bound,
		Groups:     grp.count(),
	}
	if cache, ok := p.(*colCache); ok {
		m.CacheHits = cache.hits
		m.CacheMisses = cache.misses
		m.CacheCols = cache.capCols
	}
	return m, nil
}

// finish compacts alpha to the kept SVs and fills the SV count.
func finish(m *Model) (*Model, error) {
	kept := m.alpha[:0]
	for _, a := range m.alpha {
		if a > 0 {
			kept = append(kept, a)
		}
	}
	m.alpha = kept
	m.NumSV = len(m.sv) + len(m.svSparse)
	return m, nil
}

// Decision returns f(x) = Σᵢ αᵢK(xᵢ,x) − ρ: positive on the normal side of
// the boundary, negative outside, with magnitude growing with distance —
// exactly the score the paper ranks by (Section V-C1).
func (m *Model) Decision(x []float64) float64 {
	if m.svSparse != nil {
		return m.DecisionSparse(stats.DenseToSparse(x))
	}
	var s float64
	for i, v := range m.sv {
		s += m.alpha[i] * m.kernel.Eval(v, x)
	}
	return s - m.rho
}

// DecisionSparse is Decision for a sparse sample.
func (m *Model) DecisionSparse(x stats.Sparse) float64 {
	if m.svSparse == nil {
		return m.Decision(x.Dense())
	}
	sk := m.kernel.(SparseKernel)
	var s float64
	for i, v := range m.svSparse {
		s += m.alpha[i] * sk.EvalSparse(v, x)
	}
	return s - m.rho
}

// DecisionFromGram returns f(x) given the precomputed kernel column
// kcol[i] = K(svᵢ, x) over the model's support vectors in order — the
// batch-scoring path for callers that already hold kernel products (e.g. a
// cached Gram matrix) and need no fresh evaluations.
func (m *Model) DecisionFromGram(kcol []float64) float64 {
	if len(kcol) != len(m.alpha) {
		panic(fmt.Sprintf("svm: DecisionFromGram column has %d entries, want NumSV=%d", len(kcol), len(m.alpha)))
	}
	var s float64
	for i, a := range m.alpha {
		s += a * kcol[i]
	}
	return s - m.rho
}

// TrainingDecisions returns f(xₖ) for every training sample, in training
// order. The values come from the Gram matrix already built during
// training — no kernel re-evaluation — and equal Decision(xₖ) bit-for-bit
// for symmetric kernels (every PSD kernel is). The slice is a copy;
// callers may mutate it.
func (m *Model) TrainingDecisions() []float64 {
	out := make([]float64, len(m.trainDec))
	copy(out, m.trainDec)
	return out
}

// Rho returns the trained offset.
func (m *Model) Rho() float64 { return m.rho }

// Kernel returns the kernel the model was trained with.
func (m *Model) Kernel() Kernel { return m.kernel }

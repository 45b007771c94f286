package svm

import (
	"encoding/binary"
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
	// Shrinking enables the libsvm-style shrinking heuristic: bound
	// samples that stopped violating the KKT conditions are periodically
	// parked, shrinking the working-set scan and gradient updates; before
	// termination the full gradient is reconstructed exactly and
	// optimization resumes if any parked sample still violates. The
	// optimum satisfies the same ε tolerance, but floating-point
	// summation orders differ, so results are equal only up to the
	// optimizer tolerance — use it for large l where iteration cost
	// dominates, not where bit-reproducibility against the plain path
	// matters.
	Shrinking bool
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
	if cached {
		p = newColCache(&denseColSource{samples: samples, kernel: kernel, workers: cfg.workers()}, cfg.cacheBytes())
	} else {
		p = denseMatrix(gramDense(samples, kernel, cfg.workers()))
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
		p = denseMatrix(gramSparse(samples, sk, cfg.workers()))
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
// event-handling intervals overwhelmingly repeat the same code path, so a
// batch of l samples typically holds only a handful of distinct vectors.
// Kernel values depend solely on vector contents, so evaluating one
// representative pair per group and broadcasting fills the l×l matrix with
// exactly the values a pairwise build would produce — g²/2 kernel
// evaluations instead of l²/2, plus float copies.
func gramSparse(samples []stats.Sparse, kernel SparseKernel, workers int) [][]float64 {
	reps, group := dedupSparse(samples)
	if len(reps) == len(samples) {
		return buildGram(len(samples), workers, func(i, j int) float64 {
			return kernel.EvalSparse(samples[i], samples[j])
		})
	}
	g := buildGram(len(reps), workers, func(a, b int) float64 {
		return kernel.EvalSparse(samples[reps[a]], samples[reps[b]])
	})
	// Expand one full-length row per group and alias it across that
	// group's samples: q[i][j] = g[group[i]][group[j]] with g×l storage
	// instead of l². The solver only reads q, so sharing rows is safe.
	l := len(samples)
	rows := make([][]float64, len(reps))
	for gi := range rows {
		row := make([]float64, l)
		grow := g[gi]
		for j := 0; j < l; j++ {
			row[j] = grow[group[j]]
		}
		rows[gi] = row
	}
	q := make([][]float64, l)
	for i, gi := range group {
		q[i] = rows[gi]
	}
	return q
}

// dedupSparse groups identical sparse vectors: reps lists the first sample
// index of each distinct vector, group maps every sample to its entry in
// reps. Keys are the raw index/value bytes, so only bit-identical vectors
// share a group — a missed match (e.g. ±0) merely costs an extra
// representative, never correctness.
func dedupSparse(samples []stats.Sparse) (reps []int, group []int) {
	group = make([]int, len(samples))
	seen := make(map[string]int, len(samples))
	var key []byte
	for i, s := range samples {
		key = key[:0]
		for k, idx := range s.Idx {
			key = binary.LittleEndian.AppendUint32(key, uint32(idx))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(s.Val[k]))
		}
		if gi, ok := seen[string(key)]; ok {
			group[i] = gi
			continue
		}
		seen[string(key)] = len(reps)
		group[i] = len(reps)
		reps = append(reps, i)
	}
	return reps, group
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

// shrinkInterval returns how many SMO iterations run between shrinking
// passes (libsvm's min(l, 1000) schedule).
func shrinkInterval(l int) int {
	if l < 1000 {
		return l
	}
	return 1000
}

// solve runs the SMO optimizer over a Gram-column provider and returns a
// partially-filled model (alpha, rho, diagnostics); the caller attaches
// the support-vector representation.
//
// The solver touches the matrix only through p.col, and every sum it forms
// accumulates in the same element order as the historical row-based code,
// so the result is bit-identical whether p materializes the matrix or
// memoizes columns on demand at any cache size. With cfg.Shrinking the
// iteration order over samples changes (parked samples are skipped and
// gradients reconstructed on unshrink), so that path guarantees the same
// ε-optimum but not bitwise equality.
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
// solve finds (equal up to solver tolerance, not bitwise — the same
// discipline as shrinking).
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
	// Walking them in ascending order feeds each grad[i] the same
	// additions in the same order as the historical row-based loop (Q is
	// symmetric cell-for-cell by construction); for the cold prefix
	// initialization this is exactly the historical prefix walk, so cold
	// solves stay bit-identical.
	grad := make([]float64, l)
	for j := 0; j < l; j++ {
		if alpha[j] <= 0 {
			continue
		}
		cj := p.col(j)
		aj := alpha[j]
		for i := 0; i < l; i++ {
			grad[i] += cj[i] * aj
		}
	}

	// The active set: active[:activeSize] are the sample indices the
	// working-set scan and gradient updates visit. Without shrinking it
	// stays the identity permutation over all l samples, so the scan
	// order — and every tie-break — matches the plain loop exactly.
	active := make([]int, l)
	for k := range active {
		active[k] = k
	}
	activeSize := l
	parked := false
	shrinkTick := shrinkInterval(l)

	iters := 0
	for ; iters < maxIter; iters++ {
		// Working-set selection (maximal violating pair):
		// i ∈ {α < C} minimizing Gᵢ, j ∈ {α > 0} maximizing Gⱼ.
		i, j := -1, -1
		gmin, gmax := math.Inf(1), math.Inf(-1)
		for t := 0; t < activeSize; t++ {
			k := active[t]
			if alpha[k] < c-1e-15 && grad[k] < gmin {
				gmin = grad[k]
				i = k
			}
			if alpha[k] > 1e-15 && grad[k] > gmax {
				gmax = grad[k]
				j = k
			}
		}
		if i < 0 || j < 0 || gmax-gmin < eps {
			if !parked {
				break
			}
			// Converged on the shrunk problem only. Reconstruct the
			// parked gradients exactly, reactivate everything in the
			// original order, and keep optimizing: termination always
			// means the FULL problem satisfies the ε tolerance.
			reconstructGradient(p, l, alpha, grad, active, activeSize)
			for k := range active {
				active[k] = k
			}
			activeSize = l
			parked = false
			shrinkTick = shrinkInterval(l)
			continue
		}

		if cfg.Shrinking {
			shrinkTick--
			if shrinkTick == 0 {
				shrinkTick = shrinkInterval(l)
				// Park bound samples that no longer violate: a zero
				// coefficient whose gradient already exceeds the worst
				// upper violation can't be selected as i, a bound-C
				// coefficient below the worst lower violation can't be
				// selected as j. A mistaken park is repaired by the
				// reconstruction pass above.
				for t := 0; t < activeSize; {
					k := active[t]
					if (alpha[k] <= 1e-15 && grad[k] > gmax) ||
						(alpha[k] >= c-1e-15 && grad[k] < gmin) {
						activeSize--
						active[t], active[activeSize] = active[activeSize], active[t]
						parked = true
						continue
					}
					t++
				}
			}
		}

		ci, cj := p.col(i), p.col(j)
		eta := ci[i] + cj[j] - 2*ci[j]
		var delta float64
		if eta > 1e-12 {
			delta = (grad[j] - grad[i]) / eta
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
		for t := 0; t < activeSize; t++ {
			k := active[t]
			grad[k] += delta * (ci[k] - cj[k])
		}
	}
	if parked {
		// MaxIter exhaustion (or a degenerate step) on the shrunk
		// problem: the parked gradients are stale; ρ and the training
		// decisions below need the true ones.
		reconstructGradient(p, l, alpha, grad, active, activeSize)
	}

	// ρ: at the optimum, free SVs satisfy Gᵢ = ρ.
	var freeSum float64
	var freeCnt, bound int
	lo, hi := math.Inf(-1), math.Inf(1)
	for k := 0; k < l; k++ {
		switch {
		case alpha[k] <= 1e-12:
			if grad[k] < hi {
				hi = grad[k]
			}
		case alpha[k] >= c-1e-12:
			bound++
			if grad[k] > lo {
				lo = grad[k]
			}
		default:
			freeSum += grad[k]
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
	svIdx := make([]int, 0, l)
	for k := 0; k < l; k++ {
		if alpha[k] > 1e-12 {
			svIdx = append(svIdx, k)
		} else {
			alpha[k] = 0
		}
	}

	// Score every training row from its cached Gram column. Walking the
	// SV columns in ascending training order feeds each row's sum the
	// same additions in the same order as fresh per-row evaluation, so
	// the scores reproduce Decision bit-for-bit.
	trainDec := make([]float64, l)
	for _, i := range svIdx {
		ci := p.col(i)
		ai := alpha[i]
		for k := 0; k < l; k++ {
			trainDec[k] += ai * ci[k]
		}
	}
	for k := 0; k < l; k++ {
		trainDec[k] -= rho
	}

	m := &Model{
		kernel:     kernel,
		alpha:      alpha,
		rho:        rho,
		trainDec:   trainDec,
		Iters:      iters,
		NumBoundSV: bound,
	}
	if cache, ok := p.(*colCache); ok {
		m.CacheHits = cache.hits
		m.CacheMisses = cache.misses
		m.CacheCols = cache.capCols
	}
	return m, nil
}

// reconstructGradient recomputes grad[k] = Σⱼ αⱼ·Q[k][j] from scratch for
// every parked sample (active[activeSize:]). Only columns carrying mass
// contribute, and those are overwhelmingly cached — they are exactly the
// columns the working-set updates kept touching.
func reconstructGradient(p gramProvider, l int, alpha, grad []float64, active []int, activeSize int) {
	for _, k := range active[activeSize:] {
		grad[k] = 0
	}
	for j := 0; j < l; j++ {
		if alpha[j] <= 0 {
			continue
		}
		cj := p.col(j)
		aj := alpha[j]
		for _, k := range active[activeSize:] {
			grad[k] += cj[k] * aj
		}
	}
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

package svm

import (
	"fmt"
	"math"

	"sentomist/internal/stats"
)

// Incremental trains a one-class ν-SVM repeatedly over a growing sample
// stream, reusing work across refits instead of starting each solve from
// scratch:
//
//   - the previous optimum is projected onto the new dual constraint set
//     and used to warm-start SMO, so a refit pays for the mass the new
//     samples actually move rather than re-deriving the whole solution;
//   - the dedup state and the LRU kernel-column cache persist across
//     refits — a cached column is extended in place, lazily, the first time
//     the new solve touches it, so only (new sample group × touched column)
//     kernel evaluations are paid;
//   - once state carries over, those evaluations take the norms shortcut:
//     ‖a−b‖² = ‖a‖² + ‖b‖² − 2⟨a,b⟩ with one squared norm cached per
//     distinct sample, so each cell costs a sparse dot over the SHARED
//     indices instead of a merge over the union (stats.SqDistViaNorms).
//     Shortcut cells agree with exact evaluation to floating-point
//     accuracy, not bit-for-bit — within the ε discipline below — and
//     every cold solve (first fit, rebuilds, a caller's from-scratch
//     finalization) keeps the exact merge, so bit-exactness contracts on
//     cold paths are untouched.
//
// The reuse is sound only while the already-seen prefix of the batch stays
// bitwise identical between refits; the caller signals that with
// prefixValid. Online mining rescales features as new minima/maxima
// arrive, so core.OnlineMiner passes prefixValid=false whenever the
// effective scale changed, which drops the cache (values moved) but keeps
// the warm start (a feasible point is a feasible point).
//
// Equivalence discipline: a warm refit satisfies the same ε KKT tolerance
// as a cold solve: it guarantees the same ε-optimum, not the same float
// trajectory. A warm refit whose samples did
// not change at all converges in zero iterations with the previous
// coefficients untouched.
type Incremental struct {
	cfg     Config
	src     *sparseColSource
	cache   *colCache
	alpha   []float64 // full-length α of the last solve (pre-compaction)
	warmBuf []float64 // reused projectAlpha output (solveFrom copies it)
	prevLen int
	prevDim int

	// Rebuilds counts how many refits had to discard the dedup/cache
	// state (first fit, invalid prefix, or a shrunk batch).
	Rebuilds int
}

// NewIncremental returns an incremental trainer. The config is fixed for
// the trainer's lifetime; cfg.Kernel must be nil (the per-dimension
// default) or implement SparseKernel — the online path never densifies.
func NewIncremental(cfg Config) *Incremental {
	return &Incremental{cfg: cfg}
}

// SetNu updates ν for subsequent refits. The ν-feasibility clamp ν ≥ 1/l
// moves as an online stream grows, so callers tracking it adjust here; the
// next warm start is re-projected onto the new box bound, so any value in
// (0,1] is safe mid-stream.
func (inc *Incremental) SetNu(nu float64) { inc.cfg.Nu = nu }

// Reset drops all carried state; the next Refit is a cold TrainSparse.
func (inc *Incremental) Reset() {
	inc.src, inc.cache, inc.alpha = nil, nil, nil
	inc.prevLen, inc.prevDim = 0, 0
}

// Refit fits the model to the full current batch. samples must contain
// every training sample, not just new arrivals; when prefixValid is true
// the first prevLen entries must be bitwise identical to the previous
// call's batch (backing arrays may differ), which is what lets the dedup
// state and cached kernel columns carry over. Pass prefixValid=false when
// earlier samples changed (e.g. a feature rescale) — the cache is rebuilt
// but the warm start is kept.
//
// The first Refit is bit-identical to TrainSparse with the same config on
// the cached Gram path.
func (inc *Incremental) Refit(samples []stats.Sparse, prefixValid bool) (*Model, error) {
	l := len(samples)
	if l == 0 {
		return nil, ErrNoData
	}
	if inc.cfg.Nu <= 0 || inc.cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", inc.cfg.Nu)
	}
	dim := samples[0].Dim
	for i, s := range samples {
		if s.Dim != dim {
			return nil, fmt.Errorf("svm: sample %d has %d dims, want %d", i, s.Dim, dim)
		}
	}
	kernel := inc.cfg.Kernel
	if kernel == nil {
		kernel = defaultKernel(dim)
	}
	sk, ok := kernel.(SparseKernel)
	if !ok {
		return nil, fmt.Errorf("svm: incremental training requires a SparseKernel, got %s", kernel)
	}

	if !prefixValid || inc.src == nil || l < inc.prevLen || dim != inc.prevDim {
		inc.Rebuilds++
		inc.src = newSparseColSource(samples, sk, inc.cfg.workers())
		inc.cache = newColCache(inc.src, inc.cfg.cacheBytes())
	} else {
		inc.src.extendTo(samples)
		inc.cache.grow(inc.cfg.cacheBytes())
		// Per-refit hit/miss diagnostics are more useful than cumulative.
		inc.cache.hits, inc.cache.misses = 0, 0
		// A carried refit is warm-started and ε-equivalent by the
		// discipline above, so new kernel cells may take the norms
		// shortcut; every cold solve keeps the exact merge evaluation.
		inc.src.enableFastEval()
	}
	inc.prevLen, inc.prevDim = l, dim

	var warm []float64
	if inc.alpha != nil {
		inc.warmBuf = projectAlphaInto(inc.warmBuf, inc.alpha, l, 1/(inc.cfg.Nu*float64(l)))
		warm = inc.warmBuf
	}
	m, err := solveFrom(inc.cache, l, inc.cfg, kernel, warm)
	if err != nil {
		return nil, err
	}
	// Capture the full-length α before finish compacts it in place: the
	// next refit's warm start needs every coefficient slot, zeros included.
	inc.alpha = append(inc.alpha[:0], m.alpha...)
	for k := 0; k < l; k++ {
		if m.alpha[k] > 0 {
			m.svSparse = append(m.svSparse, samples[k])
		}
	}
	// The model retains the support vectors it needs; dropping the source's
	// batch reference lets the caller release or spill non-SV samples
	// between refits.
	inc.src.release()
	return finish(m)
}

// projectAlpha maps the previous optimum onto the grown problem's feasible
// set {0 ≤ αᵢ ≤ c, Σα = 1}: old coefficients are clamped to the new (never
// larger) box bound, the mass the clamp sheds is poured onto the new
// samples LIBSVM-prefix-style, and any residue tops up old samples with
// headroom. When the problem did not grow and c is unchanged, the result
// is the previous α exactly.
func projectAlpha(prev []float64, l int, c float64) []float64 {
	return projectAlphaInto(nil, prev, l, c)
}

// projectAlphaInto is projectAlpha writing into a reused buffer: dst's
// backing array is kept when it is large enough (the solver copies the
// warm start, so the buffer is free again by the next refit).
func projectAlphaInto(dst, prev []float64, l int, c float64) []float64 {
	if cap(dst) < l {
		dst = make([]float64, l)
	}
	warm := dst[:l]
	for i := range warm {
		warm[i] = 0
	}
	n := len(prev)
	if n > l {
		n = l
	}
	var mass float64
	for i := 0; i < n; i++ {
		a := prev[i]
		if a > c {
			a = c
		}
		warm[i] = a
		mass += a
	}
	// Σ prev = 1 up to float rounding; only redistribute mass actually
	// worth moving, so an unchanged problem keeps its α bit-for-bit.
	remaining := 1 - mass
	for i := len(prev); i < l && remaining > 1e-12; i++ {
		a := math.Min(c, remaining)
		warm[i] = a
		remaining -= a
	}
	for i := 0; i < n && remaining > 1e-12; i++ {
		if room := c - warm[i]; room > 0 {
			a := math.Min(room, remaining)
			warm[i] += a
			remaining -= a
		}
	}
	return warm
}

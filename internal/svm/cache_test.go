package svm

import (
	"math"
	"sort"
	"strings"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// cacheProblem is one synthetic training problem for the cached-path
// equivalence corpus.
type cacheProblem struct {
	name   string
	sparse []stats.Sparse
	cfg    Config
}

// cacheCorpus builds a spread of problems: varying size, dimensionality,
// ν, kernel, duplicate structure, and cluster shape — the fuzz half of the
// bit-identicality acceptance bar (the case studies are pinned by the
// root-level equivalence tests).
func cacheCorpus() []cacheProblem {
	rng := randx.New(77)
	var out []cacheProblem
	add := func(name string, sparse []stats.Sparse, cfg Config) {
		out = append(out, cacheProblem{name: name, sparse: sparse, cfg: cfg})
	}
	add("small-rbf", sparseCluster(rng, 40, 24), Config{Nu: 0.1})
	add("mid-rbf", sparseCluster(rng, 200, 64), Config{Nu: 0.05})
	add("tight-nu", sparseCluster(rng, 120, 48), Config{Nu: 0.01})
	add("loose-nu", sparseCluster(rng, 90, 32), Config{Nu: 0.6})
	add("linear", sparseCluster(rng, 80, 40), Config{Nu: 0.1, Kernel: Linear{}})
	add("poly", sparseCluster(rng, 70, 36), Config{Nu: 0.15, Kernel: Poly{Gamma: 0.3, Coef0: 1, Degree: 2}})
	add("rbf-wide-gamma", sparseCluster(rng, 150, 80), Config{Nu: 0.08, Kernel: RBF{Gamma: 2.5}})

	// Heavy duplication: the dedup + shared-column regime.
	distinct := sparseCluster(rng, 12, 40)
	repeated := make([]stats.Sparse, 180)
	for i := range repeated {
		repeated[i] = distinct[i%len(distinct)]
	}
	add("repeated-12", repeated, Config{Nu: 0.05})

	// Two well-separated clusters with an outlier tail.
	two := sparseCluster(rng, 60, 50)
	shifted := sparseCluster(rng, 60, 50)
	for i, s := range shifted {
		vals := append([]float64(nil), s.Val...)
		for k := range vals {
			vals[k] += 40
		}
		shifted[i] = stats.Sparse{Idx: s.Idx, Val: vals, Dim: s.Dim}
	}
	add("two-cluster", append(two, shifted...), Config{Nu: 0.2})
	return out
}

// budgets returns the cache budgets the acceptance criteria name: ∞, 25%,
// and 5% of the dense Gram footprint, plus the 2-column floor.
func budgets(l int) map[string]int64 {
	gram := int64(8) * int64(l) * int64(l)
	return map[string]int64{
		"inf":   math.MaxInt64,
		"25pct": gram / 4,
		"5pct":  gram / 20,
		"floor": 1,
	}
}

func sameModelBits(t *testing.T, label string, want, got *Model) {
	t.Helper()
	if want.Iters != got.Iters || want.NumSV != got.NumSV || want.NumBoundSV != got.NumBoundSV {
		t.Fatalf("%s: diagnostics differ: (iters=%d sv=%d bound=%d) vs (iters=%d sv=%d bound=%d)",
			label, want.Iters, want.NumSV, want.NumBoundSV, got.Iters, got.NumSV, got.NumBoundSV)
	}
	if want.Rho() != got.Rho() {
		t.Fatalf("%s: rho %v vs %v", label, want.Rho(), got.Rho())
	}
	wd, gd := want.TrainingDecisions(), got.TrainingDecisions()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: training decision %d: %v vs %v", label, i, wd[i], gd[i])
		}
	}
	if len(want.alpha) != len(got.alpha) {
		t.Fatalf("%s: %d vs %d kept coefficients", label, len(want.alpha), len(got.alpha))
	}
	for i := range want.alpha {
		if want.alpha[i] != got.alpha[i] {
			t.Fatalf("%s: alpha %d: %v vs %v", label, i, want.alpha[i], got.alpha[i])
		}
	}
}

// TestCachedTrainingBitIdentical is the tentpole claim: at ANY cache
// budget, sparse and dense sample representations alike, the cached path
// reproduces the materialized-Gram model bit-for-bit — α, ρ, iteration
// count, and every training decision.
func TestCachedTrainingBitIdentical(t *testing.T) {
	for _, prob := range cacheCorpus() {
		t.Run(prob.name, func(t *testing.T) {
			dense := densify(prob.sparse)
			denseCfg := prob.cfg
			denseCfg.Gram = GramDense
			wantDense, err := Train(dense, denseCfg)
			if err != nil {
				t.Fatal(err)
			}
			wantSparse, err := TrainSparse(prob.sparse, denseCfg)
			if err != nil {
				t.Fatal(err)
			}
			for bname, budget := range budgets(len(dense)) {
				cfg := prob.cfg
				cfg.Gram = GramCached
				cfg.CacheBytes = budget
				mc, err := Train(dense, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameModelBits(t, prob.name+"/dense/"+bname, wantDense, mc)
				if mc.CacheMisses == 0 {
					t.Fatalf("%s/%s: cached path reports no misses", prob.name, bname)
				}
				ms, err := TrainSparse(prob.sparse, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameModelBits(t, prob.name+"/sparse/"+bname, wantSparse, ms)
			}
		})
	}
}

// TestGramRouting pins which Gram path each mode takes: the default
// trains through the column cache (diagnostics populated, at the default
// or an explicit budget) and GramDense materializes the matrix, with the
// same model bits either way. TestDenseGramGuard covers GramDense past its
// budget.
func TestGramRouting(t *testing.T) {
	rng := randx.New(5)
	samples := cluster(rng, 60, []float64{1, 1}, 0.7)
	dense, err := Train(samples, Config{Nu: 0.1, Gram: GramDense})
	if err != nil {
		t.Fatal(err)
	}
	if dense.CacheCols != 0 || dense.CacheMisses != 0 || dense.CacheHits != 0 {
		t.Fatalf("GramDense reported cache stats: cols %d, misses %d, hits %d",
			dense.CacheCols, dense.CacheMisses, dense.CacheHits)
	}
	for _, c := range []struct {
		name    string
		cfg     Config
		wantCap int
	}{
		{"default", Config{Nu: 0.1}, len(samples)},
		{"budget", Config{Nu: 0.1, CacheBytes: 8 * 60 * 5}, 5},
	} {
		m, err := Train(samples, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.CacheCols != c.wantCap || m.CacheMisses == 0 {
			t.Fatalf("%s: want the cached path with %d columns, got cols %d, misses %d",
				c.name, c.wantCap, m.CacheCols, m.CacheMisses)
		}
		sameModelBits(t, c.name, dense, m)
	}
}

// rankingOrder is argsort-ascending over training decisions with
// index tie-breaks — the exact ordering the miner publishes.
func rankingOrder(m *Model) []int {
	dec := m.TrainingDecisions()
	idx := make([]int, len(dec))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return dec[idx[a]] < dec[idx[b]] })
	return idx
}

// TestDenseGramGuard: explicit GramDense on an oversized problem errors
// with a clear message instead of attempting the l×l allocation, and the
// default mode trains the same problem through the cache with an
// unchanged model.
func TestDenseGramGuard(t *testing.T) {
	old := denseGramLimit
	denseGramLimit = 64 << 10 // 64 KiB: oversized at l ≥ 91
	defer func() { denseGramLimit = old }()

	rng := randx.New(21)
	samples := cluster(rng, 128, []float64{0, 0, 0}, 1)

	_, err := Train(samples, Config{Nu: 0.1, Gram: GramDense})
	if err == nil {
		t.Fatal("oversized dense gram accepted")
	}
	if !strings.Contains(err.Error(), "gram matrix (l=128) exceeds") {
		t.Fatalf("unhelpful oversize error: %v", err)
	}
	if _, err := TrainSparse(sparseCluster(rng, 128, 16), Config{Nu: 0.1, Gram: GramDense}); err == nil {
		t.Fatal("oversized sparse dense gram accepted")
	}

	auto, err := Train(samples, Config{Nu: 0.1})
	if err != nil {
		t.Fatalf("default mode should train oversized problems through the cache: %v", err)
	}
	if auto.CacheCols == 0 {
		t.Fatal("default mode did not use the cached path for an oversized problem")
	}
	denseGramLimit = old
	want, err := Train(samples, Config{Nu: 0.1, Gram: GramDense})
	if err != nil {
		t.Fatal(err)
	}
	sameModelBits(t, "default-cached", want, auto)
}

// fakeKernel looks kernel values up in an explicit matrix, keyed by the
// 1-D sample value. It lets tests steer the SMO working-set selection into
// branches real geometry cannot reach (the η ≤ 1e-12 degenerate step).
type fakeKernel struct{ m [][]float64 }

func (k fakeKernel) Eval(a, b []float64) float64 { return k.m[int(a[0])][int(b[0])] }
func (k fakeKernel) String() string              { return "fake" }

// TestSolveDegenerateEta drives the solver into the η ≤ 1e-12 branch: the
// working pair (2,0) has K22+K00−2·K20 = 5e-14, so the Newton step is
// infinite and must clamp to the box. The scripted optimum after two
// iterations is exact (all clamp arithmetic is in halves), so the test
// asserts it bitwise.
func TestSolveDegenerateEta(t *testing.T) {
	const tiny = 2.5e-14
	m := [][]float64{
		{1, 0, 1 - tiny, 0.6},
		{0, 1, -0.5, 0.6},
		{1 - tiny, -0.5, 1, 0.6},
		{0.6, 0.6, 0.6, 1},
	}
	samples := [][]float64{{0}, {1}, {2}, {3}}
	// ν = 0.5, l = 4 ⇒ C = 0.5, initial α = [0.5, 0.5, 0, 0], so
	// grad[k] = 0.5·(m[k][0] + m[k][1]) = [0.5, 0.5, 0.25−tiny/2, 0.6].
	// Working set: i = 2 (α < C with smallest grad), j = 0 (first of the
	// α > 0 maxima). η = m22 + m00 − 2·m20 = 2·tiny ≤ 1e-12 ⇒ δ = +Inf,
	// clamped to room C−α₂ = 0.5, then to α₀ = 0.5 — all halves, so the
	// resulting α = [0, 0.5, 0.5, 0] is exact and asserted bitwise.
	model, err := Train(samples, Config{Nu: 0.5, Kernel: fakeKernel{m}, MaxIter: 1, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if model.Iters != 1 {
		t.Fatalf("Iters = %d, want 1", model.Iters)
	}
	dec := model.TrainingDecisions()
	if len(dec) != 4 {
		t.Fatalf("decisions: %v", dec)
	}
	if model.NumSV != 2 {
		t.Fatalf("NumSV = %d, want 2 (mass moved wholly onto samples 1 and 2)", model.NumSV)
	}
	if model.alpha[0] != 0.5 || model.alpha[1] != 0.5 {
		t.Fatalf("alpha = %v, want [0.5 0.5]", model.alpha)
	}
}

// TestSolveNuOne: ν = 1 puts every sample at the bound C = 1/l; the dual
// is fully determined at initialization, the working-set scan finds no
// candidate i, and training terminates immediately with all samples
// support vectors at bound. l is a power of two so C and the prefix
// subtractions are exact and every α equals C bitwise.
func TestSolveNuOne(t *testing.T) {
	rng := randx.New(12)
	samples := cluster(rng, 32, []float64{2, -1}, 0.8)
	m, err := Train(samples, Config{Nu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters != 0 {
		t.Fatalf("Iters = %d, want 0 (dual fixed by the ν=1 box)", m.Iters)
	}
	if m.NumSV != len(samples) {
		t.Fatalf("NumSV = %d, want %d", m.NumSV, len(samples))
	}
	if m.NumBoundSV != len(samples) {
		t.Fatalf("NumBoundSV = %d, want %d", m.NumBoundSV, len(samples))
	}
	c := 1 / float64(len(samples))
	for _, a := range m.alpha {
		if a != c {
			t.Fatalf("alpha %v, want exactly C=%v", a, c)
		}
	}
	// Cached path must agree bitwise here too.
	mc, err := Train(samples, Config{Nu: 1, Gram: GramCached, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameModelBits(t, "nu-1-cached", m, mc)
}

// TestSolveMaxIterExhaustion: a starved iteration budget must still return
// a usable model — diagnostics reporting the spent budget, a feasible
// dual, finite ρ and decisions.
func TestSolveMaxIterExhaustion(t *testing.T) {
	rng := randx.New(13)
	samples := cluster(rng, 150, []float64{0, 0, 0}, 1.2)
	for _, cfg := range []Config{
		{Nu: 0.05, MaxIter: 3},
		{Nu: 0.05, MaxIter: 3, Gram: GramCached, CacheBytes: 1 << 14},
		{Nu: 0.05, MaxIter: 3, Gram: GramDense},
	} {
		m, err := Train(samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Iters != 3 {
			t.Fatalf("Iters = %d, want the exhausted budget 3", m.Iters)
		}
		if math.IsNaN(m.Rho()) || math.IsInf(m.Rho(), 0) {
			t.Fatalf("rho = %v", m.Rho())
		}
		var sum float64
		for _, a := range m.alpha {
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum(alpha) = %v after exhaustion", sum)
		}
		for _, d := range m.TrainingDecisions() {
			if math.IsNaN(d) {
				t.Fatal("NaN training decision after exhaustion")
			}
		}
	}
}

// TestDecisionFromGramZeroSVs: a degenerate model with no kept support
// vectors scores any empty column as −ρ rather than panicking.
func TestDecisionFromGramZeroSVs(t *testing.T) {
	m := &Model{rho: 0.25}
	if got := m.DecisionFromGram(nil); got != -0.25 {
		t.Fatalf("DecisionFromGram(nil) = %v, want -0.25", got)
	}
	if got := m.DecisionFromGram([]float64{}); got != -0.25 {
		t.Fatalf("DecisionFromGram(empty) = %v, want -0.25", got)
	}
}

// TestBuildGramBalancedPairs pins the paired-row handout: the parallel
// build must produce the same matrix as the sequential one at worker
// counts around the pairing boundaries (odd/even l, workers > l/2).
func TestBuildGramBalancedPairs(t *testing.T) {
	rng := randx.New(31)
	for _, l := range []int{2, 3, 7, 8, 33} {
		samples := cluster(rng, l, []float64{1, 2}, 1)
		k := RBF{Gamma: 0.4}
		want := gramDense(samples, k, 1)
		for _, workers := range []int{2, 3, l, 4 * l} {
			got := gramDense(samples, k, workers)
			for i := range want {
				for j := range want[i] {
					if want[i][j] != got[i][j] {
						t.Fatalf("l=%d workers=%d: cell (%d,%d) %v vs %v",
							l, workers, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

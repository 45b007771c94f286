package svm

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// TestIncrementalFirstRefitBitIdentical: the first Refit carries no state,
// so it must reproduce TrainSparse on the cached Gram path bit-for-bit.
func TestIncrementalFirstRefitBitIdentical(t *testing.T) {
	rng := randx.New(41)
	samples := sparseCluster(rng, 150, 48)
	cfg := Config{Nu: 0.08, Gram: GramCached, CacheBytes: budgets(len(samples))["25pct"]}
	want, err := TrainSparse(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewIncremental(cfg).Refit(samples, false)
	if err != nil {
		t.Fatal(err)
	}
	sameModelBits(t, "first-refit", want, got)
}

// TestIncrementalWarmUnchangedConvergesImmediately: refitting the very same
// batch warm-starts at the previous optimum, which already satisfies the
// KKT tolerance — zero iterations, identical coefficients and SV set.
func TestIncrementalWarmUnchangedConvergesImmediately(t *testing.T) {
	rng := randx.New(42)
	samples := sparseCluster(rng, 120, 40)
	inc := NewIncremental(Config{Nu: 0.1, Gram: GramCached, CacheBytes: 1 << 20})
	first, err := inc.Refit(samples, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := inc.Refit(samples, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Iters != 0 {
		t.Fatalf("warm refit of unchanged data took %d iterations", again.Iters)
	}
	if inc.Rebuilds != 1 {
		t.Fatalf("unchanged refit rebuilt the cache (%d rebuilds)", inc.Rebuilds)
	}
	if len(again.alpha) != len(first.alpha) {
		t.Fatalf("SV count changed: %d vs %d", len(again.alpha), len(first.alpha))
	}
	for i := range first.alpha {
		if first.alpha[i] != again.alpha[i] {
			t.Fatalf("alpha %d: %v vs %v", i, first.alpha[i], again.alpha[i])
		}
	}
	// ρ is recomputed from a freshly-assembled gradient, so it can move in
	// the last few bits relative to the incrementally-updated gradient of
	// the first solve — but no further.
	if math.Abs(first.Rho()-again.Rho()) > 1e-12 {
		t.Fatalf("rho moved: %v vs %v", first.Rho(), again.Rho())
	}
}

// TestIncrementalGrownMatchesCold: growing the batch across warm refits
// must land on the same ε-optimum a cold solve finds: decisions within the
// KKT band, no rank swaps wider than it.
func TestIncrementalGrownMatchesCold(t *testing.T) {
	rng := randx.New(43)
	full := sparseCluster(rng, 240, 56)
	cfg := Config{Nu: 0.07, Gram: GramCached, CacheBytes: budgets(len(full))["25pct"]}
	inc := NewIncremental(cfg)
	var warm *Model
	for _, cut := range []int{60, 120, 180, 240} {
		m, err := inc.Refit(full[:cut], true)
		if err != nil {
			t.Fatal(err)
		}
		warm = m
	}
	cold, err := TrainSparse(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const epsBand = 1e-3 // 10× the default KKT tolerance
	coldDec, warmDec := cold.TrainingDecisions(), warm.TrainingDecisions()
	for k := range coldDec {
		if math.Abs(coldDec[k]-warmDec[k]) > epsBand {
			t.Fatalf("sample %d decision %v (warm) vs %v (cold)", k, warmDec[k], coldDec[k])
		}
	}
	wantOrder, gotOrder := rankingOrder(cold), rankingOrder(warm)
	for i := range wantOrder {
		if wantOrder[i] == gotOrder[i] {
			continue
		}
		if gap := math.Abs(coldDec[wantOrder[i]] - coldDec[gotOrder[i]]); gap > epsBand {
			t.Fatalf("rank %d: sample %d (warm) vs %d (cold), gap %v", i, gotOrder[i], wantOrder[i], gap)
		}
	}
	// The warm trajectory should also be cheaper than re-solving cold.
	if warm.Iters >= cold.Iters {
		t.Logf("note: final warm refit took %d iters vs cold %d", warm.Iters, cold.Iters)
	}
	// Dual feasibility of the warm solution.
	c := 1 / (cfg.Nu * float64(len(full)))
	var sum float64
	for _, a := range warm.alpha {
		if a < -1e-12 || a > c+1e-9 {
			t.Fatalf("alpha %v outside [0, %v]", a, c)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("alpha mass %v, want 1", sum)
	}
}

// TestIncrementalInvalidPrefixRebuilds: prefixValid=false must drop the
// dedup/cache state (the sample values moved) and still produce the same
// ε-optimum as a cold solve on the new values.
func TestIncrementalInvalidPrefixRebuilds(t *testing.T) {
	rng := randx.New(44)
	a := sparseCluster(rng, 100, 32)
	inc := NewIncremental(Config{Nu: 0.1, Gram: GramCached, CacheBytes: 1 << 20})
	if _, err := inc.Refit(a, false); err != nil {
		t.Fatal(err)
	}
	// Rescale every value — the prefix is no longer bitwise valid.
	b := make([]stats.Sparse, len(a))
	for i, s := range a {
		vals := make([]float64, len(s.Val))
		for k, v := range s.Val {
			vals[k] = v * 0.5
		}
		b[i] = stats.Sparse{Idx: s.Idx, Val: vals, Dim: s.Dim}
	}
	got, err := inc.Refit(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Rebuilds != 2 {
		t.Fatalf("want 2 rebuilds, got %d", inc.Rebuilds)
	}
	cold, err := TrainSparse(b, Config{Nu: 0.1, Gram: GramCached, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	coldDec, gotDec := cold.TrainingDecisions(), got.TrainingDecisions()
	for k := range coldDec {
		if math.Abs(coldDec[k]-gotDec[k]) > 1e-3 {
			t.Fatalf("sample %d decision %v vs cold %v", k, gotDec[k], coldDec[k])
		}
	}
}

// TestProjectAlphaFeasible: the projected warm start must always lie in
// the dual feasible set {0 ≤ αᵢ ≤ c, Σα ≈ 1}, including when the box bound
// tightens (l grows) and when mass must spill onto new samples.
func TestProjectAlphaFeasible(t *testing.T) {
	rng := randx.New(45)
	for trial := 0; trial < 200; trial++ {
		nu := 0.02 + 0.9*rng.Float64()
		pl := 1 + rng.Intn(80)
		l := pl + rng.Intn(120)
		// Build a feasible prev for the OLD problem (bound 1/(νpl)).
		oldC := 1 / (nu * float64(pl))
		prev := make([]float64, pl)
		remaining := 1.0
		for i := 0; i < pl && remaining > 0; i++ {
			a := math.Min(remaining, oldC*rng.Float64())
			if i == pl-1 {
				a = math.Min(remaining, oldC)
			}
			prev[i] = a
			remaining -= a
		}
		c := 1 / (nu * float64(l))
		warm := projectAlpha(prev, l, c)
		var sum float64
		for i, a := range warm {
			if a < 0 || a > c+1e-12 {
				t.Fatalf("trial %d: warm[%d]=%v outside [0,%v]", trial, i, a, c)
			}
			sum += a
		}
		// projectAlpha preserves whatever mass prev carried (≤1) and tops
		// it up to 1 when the box permits; capacity c·l = 1/ν ≥ 1 always.
		if sum > 1+1e-9 || sum < 1-1e-9 {
			t.Fatalf("trial %d: warm mass %v, want 1 (pl=%d l=%d nu=%v)", trial, sum, pl, l, nu)
		}
	}
}

// TestProjectAlphaUnchangedIsIdentity: same l, same c → bitwise copy.
func TestProjectAlphaUnchangedIsIdentity(t *testing.T) {
	prev := []float64{0.25, 0, 0.5, 0.25}
	warm := projectAlpha(prev, len(prev), 0.5)
	for i := range prev {
		if warm[i] != prev[i] {
			t.Fatalf("warm[%d]=%v, want %v", i, warm[i], prev[i])
		}
	}
}

// countingKernel wraps RBF and counts sparse evaluations.
type countingKernel struct {
	RBF
	n *atomic.Int64
}

func (k countingKernel) EvalSparse(a, b stats.Sparse) float64 {
	k.n.Add(1)
	return k.RBF.EvalSparse(a, b)
}

// TestExtendToMatchesFreshSource: a source grown batch-by-batch must
// assign the same groups, link the same member lists, and fill
// bit-identical group columns as one built in a single shot over the full
// batch.
func TestExtendToMatchesFreshSource(t *testing.T) {
	rng := randx.New(46)
	distinct := sparseCluster(rng, 9, 24)
	full := make([]stats.Sparse, 90)
	for i := range full {
		full[i] = distinct[rng.Intn(len(distinct))]
	}
	kernel := RBF{Gamma: 1.0 / 24}

	grown := newSparseColSource(full[:30], kernel, 1)
	grown.extendTo(full[:60])
	grown.extendTo(full)
	fresh := newSparseColSource(full, kernel, 1)

	if grown.grp.count() != fresh.grp.count() {
		t.Fatalf("distinct: grown %d vs fresh %d", grown.grp.count(), fresh.grp.count())
	}
	for i := range full {
		if grown.grp.of[i] != fresh.grp.of[i] {
			t.Fatalf("sample %d: group %d (grown) vs %d (fresh)", i, grown.grp.of[i], fresh.grp.of[i])
		}
	}
	if !reflect.DeepEqual(grown.grp, fresh.grp) {
		t.Fatalf("member lists differ: grown %+v vs fresh %+v", grown.grp, fresh.grp)
	}
	a, b := make([]float64, fresh.grp.count()), make([]float64, fresh.grp.count())
	for g := 0; g < fresh.grp.count(); g++ {
		grown.fill(g, a)
		fresh.fill(g, b)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("column %d cell %d: %v vs %v", g, k, a[k], b[k])
			}
		}
	}
}

// TestCacheGrowBitExactAndCheap: after extendTo + grow, a resident column
// must be extended lazily — zero kernel evaluations until the column is
// touched, then exactly (new groups) evaluations for that one column — and
// the extended column must be bit-identical to a from-scratch fill.
// Untouched columns never pay anything.
func TestCacheGrowBitExactAndCheap(t *testing.T) {
	rng := randx.New(47)
	distinct := sparseCluster(rng, 12, 20)
	full := make([]stats.Sparse, 120)
	for i := range full[:80] {
		full[i] = distinct[rng.Intn(8)] // the tail introduces groups 8..11
	}
	for i := 80; i < len(full); i++ {
		full[i] = distinct[rng.Intn(len(distinct))]
	}
	var evals atomic.Int64
	kernel := countingKernel{RBF{Gamma: 0.05}, &evals}

	src := newSparseColSource(full[:80], kernel, 1)
	cache := newColCache(src, 1<<30) // room for every column
	oldReps := src.grp.count()
	var resident []int
	for g := 0; g < oldReps; g++ {
		cache.col(src.grp.head[g]) // fault in by sample index of each rep
		resident = append(resident, g)
	}

	src.extendTo(full)
	evals.Store(0)
	cache.grow(1 << 30)
	newReps := src.grp.count() - oldReps
	if newReps == 0 {
		t.Fatal("tail introduced no new groups; the accounting below is vacuous")
	}
	if got := evals.Load(); got != 0 {
		t.Fatalf("grow paid %d kernel evals eagerly, want 0 (extension is lazy)", got)
	}

	want := make([]float64, src.grp.count())
	freshSrc := newSparseColSource(full, RBF{Gamma: 0.05}, 1)
	for _, g := range resident {
		evals.Store(0)
		got := cache.col(src.grp.head[g]) // first touch after growth extends
		if int64(newReps) != evals.Load() {
			t.Fatalf("column %d extension paid %d kernel evals, want %d (one per new group)",
				g, evals.Load(), newReps)
		}
		if len(got) != src.grp.count() {
			t.Fatalf("column %d length %d, want one cell per group (%d)", g, len(got), src.grp.count())
		}
		freshSrc.fill(g, want)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("column %d cell %d: %v (grown) vs %v (fresh)", g, k, got[k], want[k])
			}
		}
		evals.Store(0)
		cache.col(src.grp.head[g]) // second touch is a plain hit
		if evals.Load() != 0 {
			t.Fatalf("column %d re-touch paid %d kernel evals, want 0", g, evals.Load())
		}
	}
}

// TestCacheGrowEvictsToBudget: shrinking the budget during grow drops LRU
// columns first and keeps the rest valid.
func TestCacheGrowEvictsToBudget(t *testing.T) {
	rng := randx.New(48)
	samples := sparseCluster(rng, 64, 16)
	src := newSparseColSource(samples[:48], RBF{Gamma: 0.1}, 1)
	cache := newColCache(src, 1<<30)
	for g := 0; g < 8; g++ {
		cache.col(src.grp.head[g])
	}
	src.extendTo(samples)
	cache.grow(8 * 64 * 3) // 64 groups of 8 bytes each: room for exactly 3 columns
	if len(cache.entries) != 3 {
		t.Fatalf("%d resident columns after grow, want 3", len(cache.entries))
	}
	if cache.capCols != 3 {
		t.Fatalf("capCols %d, want 3", cache.capCols)
	}
	// The 3 survivors are the most recently used: groups 5, 6, 7.
	for _, g := range []int{5, 6, 7} {
		if cache.entries[g] == nil {
			t.Fatalf("group %d evicted, expected it to survive (MRU)", g)
		}
	}
}

// TestIncrementalRejectsNonSparseKernel: the online path never densifies.
func TestIncrementalRejectsNonSparseKernel(t *testing.T) {
	rng := randx.New(49)
	samples := sparseCluster(rng, 10, 16)
	inc := NewIncremental(Config{Nu: 0.2, Kernel: fakeKernel{m: [][]float64{{1}}}})
	if _, err := inc.Refit(samples, false); err == nil {
		t.Fatal("dense-only kernel accepted by the incremental path")
	}
}

// TestIncrementalValidation: empty batches, bad nu, ragged dims.
func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(Config{Nu: 0.1}).Refit(nil, false); err != ErrNoData {
		t.Fatalf("empty batch: %v, want ErrNoData", err)
	}
	rng := randx.New(50)
	samples := sparseCluster(rng, 10, 16)
	if _, err := NewIncremental(Config{Nu: 0}).Refit(samples, false); err == nil {
		t.Fatal("nu=0 accepted")
	}
	ragged := append(append([]stats.Sparse(nil), samples...), stats.Sparse{Dim: 9})
	if _, err := NewIncremental(Config{Nu: 0.1}).Refit(ragged, false); err == nil {
		t.Fatal("ragged dims accepted")
	}
}

// TestFastEvalCellsWithinTolerance: fast mode evaluates new cells through
// the norms identity, which must agree with the exact merge to floating-
// point accuracy — and must be bit-identical for dot-product kernels,
// where the identity degenerates to the same sparse dot.
func TestFastEvalCellsWithinTolerance(t *testing.T) {
	rng := randx.New(47)
	samples := sparseCluster(rng, 80, 32)
	for _, kernel := range []SparseKernel{RBF{Gamma: 1.0 / 32}, Linear{}} {
		exact := newSparseColSource(samples, kernel, 1)
		fast := newSparseColSource(samples, kernel, 1)
		fast.enableFastEval()
		if !fast.fast {
			t.Fatalf("%s: fast mode did not engage", kernel)
		}
		a, b := make([]float64, len(samples)), make([]float64, len(samples))
		for g := 0; g < exact.grp.count(); g++ {
			exact.fill(g, a)
			fast.fill(g, b)
			for k := range a {
				if _, isRBF := kernel.(RBF); !isRBF {
					if a[k] != b[k] {
						t.Fatalf("%s column %d cell %d: %v (exact) vs %v (fast), want bit-identical", kernel, g, k, a[k], b[k])
					}
					continue
				}
				if diff := math.Abs(a[k] - b[k]); diff > 1e-12 {
					t.Fatalf("%s column %d cell %d: %v (exact) vs %v (fast), diff %v", kernel, g, k, a[k], b[k], diff)
				}
			}
		}
	}
}

// TestFastEvalNormsTrackGrowth: norms must cover every group after the
// source grows, whether fast mode was enabled before or after the growth.
func TestFastEvalNormsTrackGrowth(t *testing.T) {
	rng := randx.New(48)
	full := sparseCluster(rng, 60, 24)
	kernel := RBF{Gamma: 1.0 / 24}

	before := newSparseColSource(full[:30], kernel, 1)
	before.enableFastEval()
	before.extendTo(full)
	if len(before.norms) != before.grp.count() {
		t.Fatalf("enabled-then-grown: %d norms for %d groups", len(before.norms), before.grp.count())
	}

	after := newSparseColSource(full[:30], kernel, 1)
	after.extendTo(full)
	after.enableFastEval()
	if len(after.norms) != after.grp.count() {
		t.Fatalf("grown-then-enabled: %d norms for %d groups", len(after.norms), after.grp.count())
	}
	for g := range before.norms {
		if before.norms[g] != after.norms[g] {
			t.Fatalf("group %d: norm %v vs %v", g, before.norms[g], after.norms[g])
		}
	}
}

package svm

import (
	"fmt"
	"math"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// referenceSolve is the per-sample SMO solver the grouped solveFrom
// replaced, kept as its test oracle: the gradient and the training
// decisions are l-length, the working-set scan visits every sample, and Q
// is read through full l-length columns q[j] (q[j][k] == Q[k][j]). The
// returned model carries the compacted α, ρ, the training decisions and the
// diagnostics solveFrom reports.
func referenceSolve(q [][]float64, cfg Config, warm []float64) *Model {
	l := len(q)
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
		copy(alpha, warm)
	} else {
		remaining := 1.0
		for i := 0; i < l && remaining > 0; i++ {
			a := math.Min(c, remaining)
			alpha[i] = a
			remaining -= a
		}
	}
	grad := make([]float64, l)
	for j := 0; j < l; j++ {
		if alpha[j] <= 0 {
			continue
		}
		for i := 0; i < l; i++ {
			grad[i] += q[j][i] * alpha[j]
		}
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		i, j := -1, -1
		gmin, gmax := math.Inf(1), math.Inf(-1)
		for k := 0; k < l; k++ {
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
			break
		}
		ci, cj := q[i], q[j]
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
		for k := 0; k < l; k++ {
			grad[k] += delta * (ci[k] - cj[k])
		}
	}
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
	var kept []float64
	trainDec := make([]float64, l)
	for i := 0; i < l; i++ {
		if !(alpha[i] > 1e-12) {
			continue
		}
		kept = append(kept, alpha[i])
		for k := 0; k < l; k++ {
			trainDec[k] += alpha[i] * q[i][k]
		}
	}
	for k := range trainDec {
		trainDec[k] -= rho
	}
	return &Model{alpha: kept, rho: rho, trainDec: trainDec, Iters: iters, NumSV: len(kept), NumBoundSV: bound}
}

// fullColumns expands a grouped provider into the l×l matrix the
// reference reads: the very cell values the grouped solver sees.
func fullColumns(p gramProvider) [][]float64 {
	of := p.groups().of
	q := make([][]float64, len(of))
	for j := range q {
		cj := p.col(j)
		q[j] = make([]float64, len(of))
		for k, b := range of {
			q[j][k] = cj[b]
		}
	}
	return q
}

// degenerateMatrix is TestSolveDegenerateEta's scripted kernel: the pair
// (2, 0) has K22 + K00 − 2·K20 = 5e-14.
var degenerateMatrix = [][]float64{
	{1, 0, 1 - 2.5e-14, 0.6},
	{0, 1, -0.5, 0.6},
	{1 - 2.5e-14, -0.5, 1, 0.6},
	{0.6, 0.6, 0.6, 1},
}

// fakeSparseKernel is fakeKernel over sparse samples, so TrainSparse
// groups duplicates: sample k is the 1-D vector [k+1] (a zero would have no
// stored entry).
type fakeSparseKernel struct{ m [][]float64 }

func (k fakeSparseKernel) Eval(a, b []float64) float64 { return k.m[int(a[0])-1][int(b[0])-1] }
func (k fakeSparseKernel) EvalSparse(a, b stats.Sparse) float64 {
	return k.m[int(a.Val[0])-1][int(b.Val[0])-1]
}
func (k fakeSparseKernel) String() string { return "fake-sparse" }

// referenceProblem is one grouped-solver equivalence case.
type referenceProblem struct {
	name    string
	samples []stats.Sparse
	cfg     Config
	groups  int
}

// tile lays l samples over the distinct vectors, group k drawn with weight
// ∝ 1/(k+1)² so a few groups hold most samples and the tail is thin, in
// shuffled order so every group's members interleave with the others'.
// Every distinct vector appears at least once.
func tile(rng *randx.RNG, distinct []stats.Sparse, l int) []stats.Sparse {
	out := append([]stats.Sparse(nil), distinct...)
	var total float64
	for k := range distinct {
		total += 1 / float64((k+1)*(k+1))
	}
	for len(out) < l {
		u := rng.Float64() * total
		k := 0
		for ; k < len(distinct)-1; k++ {
			if u -= 1 / float64((k+1)*(k+1)); u < 0 {
				break
			}
		}
		out = append(out, distinct[k])
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// farGroups returns n vectors so far from each other and from any
// sparseCluster point that their RBF values underflow to exactly 0: groups
// that carry no mass then share the exact gradient 0, and the working-set
// scan must break the cross-group tie by lowest sample index.
func farGroups(n, dim int) []stats.Sparse {
	out := make([]stats.Sparse, n)
	for k := range out {
		v := make([]float64, dim)
		v[(k*5+1)%dim] = 1e4 * float64(k+1)
		out[k] = stats.DenseToSparse(v)
	}
	return out
}

func referenceCorpus() []referenceProblem {
	rng := randx.New(101)
	var out []referenceProblem
	add := func(name string, samples []stats.Sparse, cfg Config, groups int) {
		out = append(out, referenceProblem{name: name, samples: samples, cfg: cfg, groups: groups})
	}
	const l, dim = 160, 24
	for _, g := range []int{1, 2, 5, 17, 60, l} {
		add(fmt.Sprintf("g%d-skewed", g), tile(rng, sparseCluster(rng, g, dim), l), Config{Nu: 0.07}, g)
	}
	ties := append(sparseCluster(rng, 6, dim), farGroups(5, dim)...)
	add("far-group-ties", tile(rng, ties, l), Config{Nu: 0.1, Kernel: RBF{Gamma: 1.0 / dim}}, len(ties))
	// The degenerate-step branch (η ≤ 1e-12, the Newton step clamps to
	// the box) over duplicated samples: groups 0 and 2 are nearly the same
	// point in feature space but differ in their other kernel values.
	var fake []stats.Sparse
	for k := range degenerateMatrix {
		fake = append(fake, stats.DenseToSparse([]float64{float64(k + 1)}))
	}
	add("degenerate-eta", tile(rng, fake, 40), Config{Nu: 0.3, Eps: 1e-9, Kernel: fakeSparseKernel{degenerateMatrix}}, len(fake))
	add("nu-1", tile(rng, sparseCluster(rng, 7, dim), 64), Config{Nu: 1}, 7)
	add("max-iter-3", tile(rng, sparseCluster(rng, 9, dim), l), Config{Nu: 0.05, MaxIter: 3}, 9)
	add("linear", tile(rng, sparseCluster(rng, 12, dim), 90), Config{Nu: 0.1, Kernel: Linear{}}, 12)
	return out
}

// groupedConfigs are the Gram paths and budgets each case trains through:
// the dense g×g reference block and the column cache from unbounded down
// to the two-column floor.
func groupedConfigs(cfg Config, groups int) map[string]Config {
	col := int64(8 * groups)
	out := map[string]Config{}
	for name, c := range map[string]struct {
		gram  GramMode
		bytes int64
	}{
		"dense":  {GramDense, 0},
		"inf":    {GramCached, math.MaxInt64},
		"half":   {GramCached, col * int64(groups/2)},
		"3-cols": {GramCached, 3 * col},
		"floor":  {GramCached, 1},
	} {
		cc := cfg
		cc.Gram, cc.CacheBytes = c.gram, c.bytes
		out[name] = cc
	}
	return out
}

// compacted is a raw solveFrom model as the public entry points return
// it: α filtered to the kept support vectors and counted.
func compacted(m *Model) *Model {
	m, _ = finish(m)
	m.NumSV = len(m.alpha)
	return m
}

// TestGroupedSolverMatchesReference pins the grouped solver to the
// per-sample one it replaced: α, ρ, every training decision, the iteration
// count and the bound-SV count agree bitwise — cold and warm-started after
// growth, over the dense block and the column cache at every budget, and
// on the dense-sample path's singleton groups.
func TestGroupedSolverMatchesReference(t *testing.T) {
	for _, prob := range referenceCorpus() {
		kernel := prob.cfg.Kernel
		if kernel == nil {
			kernel = defaultKernel(prob.samples[0].Dim)
		}
		sk := kernel.(SparseKernel)
		t.Run("cold/"+prob.name, func(t *testing.T) {
			dense := gramSparse(prob.samples, sk, 1)
			if got := dense.grp.count(); got != prob.groups {
				t.Fatalf("%d groups, want %d", got, prob.groups)
			}
			want := referenceSolve(fullColumns(dense), prob.cfg, nil)
			for name, cfg := range groupedConfigs(prob.cfg, prob.groups) {
				got, err := TrainSparse(prob.samples, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Groups != prob.groups {
					t.Fatalf("%s: Model.Groups = %d, want %d", name, got.Groups, prob.groups)
				}
				sameModelBits(t, name, want, got)
			}
		})
		t.Run("warm/"+prob.name, func(t *testing.T) {
			// Solve the first half, grow to the full batch, and restart from
			// the projected optimum — the online refit's shape.
			l, l0 := len(prob.samples), len(prob.samples)/2
			prev, err := solveFrom(gramSparse(prob.samples[:l0], sk, 1), l0, prob.cfg, kernel, nil)
			if err != nil {
				t.Fatal(err)
			}
			warm := projectAlpha(prev.alpha, l, 1/(prob.cfg.Nu*float64(l)))
			want := referenceSolve(fullColumns(gramSparse(prob.samples, sk, 1)), prob.cfg, warm)
			check := func(label string, p gramProvider) {
				t.Helper()
				got, err := solveFrom(p, l, prob.cfg, kernel, warm)
				if err != nil {
					t.Fatal(err)
				}
				sameModelBits(t, label, want, compacted(got))
			}
			check("dense", gramSparse(prob.samples, sk, 1))
			for name, cfg := range groupedConfigs(prob.cfg, prob.groups) {
				if cfg.Gram == GramDense {
					continue
				}
				check("fresh-"+name, newColCache(newSparseColSource(prob.samples, sk, 1), cfg.CacheBytes))
				// A cache carried across the growth: resident columns are
				// extended in place (fillTail) the first time they are hit.
				src := newSparseColSource(prob.samples[:l0], sk, 1)
				cache := newColCache(src, cfg.CacheBytes)
				if _, err := solveFrom(cache, l0, prob.cfg, kernel, nil); err != nil {
					t.Fatal(err)
				}
				src.extendTo(prob.samples)
				cache.grow(cfg.CacheBytes)
				check("grown-"+name, cache)
			}
		})
	}
	t.Run("dense-samples", func(t *testing.T) {
		fake := fakeKernel{degenerateMatrix}
		rng := randx.New(102)
		for _, c := range []struct {
			name    string
			samples [][]float64
			cfg     Config
		}{
			{"degenerate-eta", [][]float64{{0}, {1}, {2}, {3}}, Config{Nu: 0.5, Kernel: fake, Eps: 1e-9}},
			{"cluster", cluster(rng, 90, []float64{1, -2, 0.5}, 0.9), Config{Nu: 0.08, Kernel: RBF{Gamma: 0.4}}},
			{"max-iter-3", cluster(rng, 70, []float64{0, 0}, 1.1), Config{Nu: 0.05, MaxIter: 3, Kernel: RBF{Gamma: 0.5}}},
		} {
			want := referenceSolve(gramDense(c.samples, c.cfg.Kernel, 1), c.cfg, nil)
			for name, cfg := range groupedConfigs(c.cfg, len(c.samples)) {
				got, err := Train(c.samples, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Groups != len(c.samples) {
					t.Fatalf("%s/%s: Model.Groups = %d, want one per sample (%d)", c.name, name, got.Groups, len(c.samples))
				}
				sameModelBits(t, c.name+"/"+name, want, got)
			}
		}
	})
}

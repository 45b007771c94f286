package sentomist_test

// The sparse/parallel mining engine claims more than a tolerance: the
// default pipeline (sparse instruction counters, concurrent anatomize +
// feature workers, parallel Gram construction, Gram-reuse scoring) must
// produce rankings identical to the dense, fully sequential baseline.
// These tests pin that equivalence on the three paper case studies.

import (
	"math"
	"testing"

	"sentomist"
	"sentomist/internal/outlier"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
)

// caseFixtures returns one Mine workload per paper case study, sized for
// test time rather than paper fidelity (the golden tests pin the canonical
// full-length rankings).
func caseFixtures(t *testing.T) map[string]struct {
	inputs []sentomist.RunInput
	cfg    sentomist.MineConfig
} {
	t.Helper()
	fixtures := make(map[string]struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	})

	var caseI []sentomist.RunInput
	for i, d := range []int{20, 40, 60} {
		run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: d, Seconds: 5, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		caseI = append(caseI, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	fixtures["caseI"] = struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	}{caseI, sentomist.MineConfig{IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID}}}

	runII, err := sentomist.RunCaseII(sentomist.CaseIIConfig{Seconds: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fixtures["caseII"] = struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	}{
		[]sentomist.RunInput{{Trace: runII.Trace, Programs: runII.Programs}},
		sentomist.MineConfig{IRQ: sentomist.IRQRadioRX, Nodes: []int{sentomist.CaseIIRelayID}, Labels: sentomist.LabelSeqOnly},
	}

	runIII, err := sentomist.RunCaseIII(sentomist.CaseIIIConfig{Seconds: 8, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	fixtures["caseIII"] = struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	}{
		[]sentomist.RunInput{{Trace: runIII.Trace, Programs: runIII.Programs}},
		sentomist.MineConfig{IRQ: sentomist.IRQTimer0, Nodes: sentomist.CaseIIISources(), Labels: sentomist.LabelNodeSeq},
	}
	return fixtures
}

func sameRanking(t *testing.T, label string, want, got *sentomist.Ranking) {
	t.Helper()
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%s: %d samples vs %d", label, len(want.Samples), len(got.Samples))
	}
	if want.Dim != got.Dim || want.Excluded != got.Excluded {
		t.Fatalf("%s: dim/excluded drifted: (%d,%d) vs (%d,%d)",
			label, want.Dim, want.Excluded, got.Dim, got.Excluded)
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if w.Run != g.Run || w.Interval != g.Interval {
			t.Fatalf("%s: rank %d order differs: %+v vs %+v", label, i+1, w.Interval, g.Interval)
		}
		diff := w.Score - g.Score
		if diff < -1e-12 || diff > 1e-12 {
			t.Fatalf("%s: rank %d score %v vs %v", label, i+1, w.Score, g.Score)
		}
		if w.Score != g.Score {
			t.Logf("%s: rank %d score differs within tolerance: %v vs %v", label, i+1, w.Score, g.Score)
		}
	}
}

// TestMineSparseParallelEquivalence checks every engine configuration
// against the dense sequential baseline on all three case fixtures.
func TestMineSparseParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	for name, fx := range caseFixtures(t) {
		t.Run(name, func(t *testing.T) {
			baseCfg := fx.cfg
			baseCfg.DenseFeatures = true
			baseCfg.Parallelism = 1
			baseCfg.Detector = outlier.OneClassSVM{Parallelism: 1}
			want, err := sentomist.Mine(fx.inputs, baseCfg)
			if err != nil {
				t.Fatal(err)
			}
			variants := map[string]sentomist.MineConfig{
				"sparse-seq":   {Parallelism: 1},
				"dense-par":    {DenseFeatures: true, Parallelism: 8},
				"sparse-par":   {Parallelism: 8},
				"sparse-auto":  {},
				"gram-par":     {Parallelism: 1, Detector: outlier.OneClassSVM{Parallelism: 8}},
				"all-parallel": {Parallelism: 8, Detector: outlier.OneClassSVM{Parallelism: 8}},
			}
			for vname, v := range variants {
				cfg := fx.cfg
				cfg.DenseFeatures = v.DenseFeatures
				cfg.Parallelism = v.Parallelism
				cfg.Detector = v.Detector
				got, err := sentomist.Mine(fx.inputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, name+"/"+vname, want, got)
			}
		})
	}
}

// sameRankingExact is sameRanking with zero tolerance: every rank and
// every score must match bit-for-bit.
func sameRankingExact(t *testing.T, label string, want, got *sentomist.Ranking) {
	t.Helper()
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%s: %d samples vs %d", label, len(want.Samples), len(got.Samples))
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if w != g {
			t.Fatalf("%s: rank %d differs: %+v (score %v) vs %+v (score %v)",
				label, i+1, w.Interval, w.Score, g.Interval, g.Score)
		}
	}
}

// denseGramSVM is the default detector (outlier.OneClassSVM with its
// default ν) trained on the fully materialized Gram matrix: the reference
// the default column-cache path must reproduce bit-for-bit.
type denseGramSVM struct{}

func (denseGramSVM) Name() string { return "one-class-svm-dense-gram" }

func (denseGramSVM) config(l int) svm.Config {
	return svm.Config{Nu: math.Max(0.05, 1/float64(l)), Gram: svm.GramDense}
}

func (d denseGramSVM) Score(samples [][]float64) ([]float64, error) {
	m, err := svm.Train(samples, d.config(len(samples)))
	if err != nil {
		return nil, err
	}
	return outlier.Normalize(m.TrainingDecisions()), nil
}

func (d denseGramSVM) ScoreSparse(samples []stats.Sparse) ([]float64, error) {
	m, err := svm.TrainSparse(samples, d.config(len(samples)))
	if err != nil {
		return nil, err
	}
	return outlier.Normalize(m.TrainingDecisions()), nil
}

// TestMineCachedKernelEquivalence pins the on-demand kernel cache's
// central claim on the three case studies: mining through the column
// cache — at the default budget and at budgets from effectively unbounded
// down to 5% of the dense Gram footprint — reproduces the dense-Gram
// reference ranking bit-for-bit (the golden Figure 5 tables stay
// byte-stable).
func TestMineCachedKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	for name, fx := range caseFixtures(t) {
		t.Run(name, func(t *testing.T) {
			ref := fx.cfg
			ref.Detector = denseGramSVM{}
			want, err := sentomist.Mine(fx.inputs, ref)
			if err != nil {
				t.Fatal(err)
			}
			gram := int64(8) * int64(len(want.Samples)) * int64(len(want.Samples))
			budgets := map[string]int64{
				"default":   0,
				"unbounded": 1 << 40,
				"25pct":     gram / 4,
				"5pct":      gram / 20,
			}
			for bname, budget := range budgets {
				cfg := fx.cfg
				cfg.SVMCacheBytes = budget
				got, err := sentomist.Mine(fx.inputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameRankingExact(t, name+"/cached-"+bname, want, got)
			}
		})
	}
}

// TestMineParallelRace drives the worker pools hard enough for the race
// detector to observe them (go test -race exercises this deliberately):
// repeated concurrent mining of the same immutable inputs.
func TestMineParallelRace(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: 20, Seconds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sentomist.MineConfig{
		IRQ:         sentomist.IRQADC,
		Nodes:       []int{sentomist.CaseISensorID},
		Parallelism: 8,
		Detector:    outlier.OneClassSVM{Parallelism: 8},
	}
	var first *sentomist.Ranking
	for i := 0; i < 3; i++ {
		// Feature extraction mutates nothing in the trace, so the same
		// inputs can be mined repeatedly.
		r, err := sentomist.Mine([]sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
		} else {
			sameRanking(t, "repeat", first, r)
		}
	}
}

// Package core is Sentomist's bug-symptom mining pipeline (the paper's
// Figure 3): take the traces of one or more testing runs, anatomize them
// into event-handling intervals, feature each interval as an instruction
// counter, score every sample with a plug-in outlier detector, and emit the
// ascending ranking that directs manual inspection.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"sentomist/internal/feature"
	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// FeatureKind selects how intervals are featured.
type FeatureKind uint8

// Feature kinds. FeatureCounter is the paper's Definition 4; the others
// exist for the ablation experiments.
const (
	FeatureCounter FeatureKind = iota + 1
	FeatureFuncCount
	FeatureDuration
	FeatureStackDepth
)

// LabelStyle selects how samples are labeled in rankings, mirroring the
// paper's three tables: [r, s] with the run index (Fig. 5a), a bare
// chronological index (Fig. 5b), or [n, s] with the node ID (Fig. 5c).
type LabelStyle uint8

// Label styles.
const (
	LabelRunSeq LabelStyle = iota + 1
	LabelSeqOnly
	LabelNodeSeq
)

// RunInput is one testing run to mine.
type RunInput struct {
	Trace *trace.Trace
	// Programs maps node ID to its binary; needed only for
	// FeatureFuncCount.
	Programs map[int]*isa.Program
}

// Config parameterizes mining.
type Config struct {
	// IRQ is the event type whose intervals are mined.
	IRQ int
	// Nodes restricts mining to these node IDs; nil means all nodes.
	Nodes []int
	// Detector defaults to the one-class SVM.
	Detector outlier.Detector
	// Feature defaults to FeatureCounter.
	Feature FeatureKind
	// Labels defaults to LabelRunSeq.
	Labels LabelStyle
	// Parallelism bounds the worker pool that anatomizes and features
	// the runs' nodes concurrently: 0 selects GOMAXPROCS, 1 forces the
	// sequential path. Samples are stitched back in deterministic
	// (run, node, interval) order, so the ranking is identical at any
	// setting.
	Parallelism int
	// DenseFeatures forces dense feature extraction. By default
	// FeatureCounter uses the sparse path — (pc, count) pairs instead of
	// ProgramLen-dimensional vectors — which produces bit-identical
	// rankings; this switch exists for benchmarking the dense baseline
	// and for equivalence tests.
	DenseFeatures bool
	// SVMCacheBytes bounds the on-demand kernel column cache the default
	// one-class-SVM detector trains through (0 selects
	// svm.DefaultCacheBytes). Rankings are bit-identical at any budget.
	// Ignored when Detector is set explicitly.
	SVMCacheBytes int64
}

// defaultDetector builds the detector used when cfg.Detector is nil: the
// paper's one-class SVM, carrying the config's training knobs.
func (cfg Config) defaultDetector() outlier.Detector {
	return outlier.OneClassSVM{CacheBytes: cfg.SVMCacheBytes}
}

// Sample is one scored event-handling interval.
type Sample struct {
	// Run is the 1-based index of the testing run the sample came from.
	Run int
	// Interval identifies the event-procedure instance.
	Interval lifecycle.Interval
	// Score is the detector's normalized score; lower = more suspicious.
	Score float64
}

// Label renders the sample index in the requested style.
func (s Sample) Label(style LabelStyle) string {
	switch style {
	case LabelSeqOnly:
		return fmt.Sprintf("%d", s.Interval.Seq)
	case LabelNodeSeq:
		return fmt.Sprintf("[%d, %d]", s.Interval.Node, s.Interval.Seq)
	default:
		return fmt.Sprintf("[%d, %d]", s.Run, s.Interval.Seq)
	}
}

// Ranking is the pipeline's output: samples ascending by score (most
// suspicious first), ready for top-k manual inspection.
type Ranking struct {
	Detector string
	Labels   LabelStyle
	Samples  []Sample
	// Excluded counts intervals dropped because the run ended before
	// the instance completed.
	Excluded int
	// Dim is the feature dimensionality.
	Dim int
}

// Top returns the k most suspicious samples (fewer if the ranking is
// shorter).
func (r *Ranking) Top(k int) []Sample {
	if k > len(r.Samples) {
		k = len(r.Samples)
	}
	return r.Samples[:k]
}

// RankOf returns the 1-based rank of the first sample satisfying pred, or
// 0 when none does.
func (r *Ranking) RankOf(pred func(Sample) bool) int {
	for i, s := range r.Samples {
		if pred(s) {
			return i + 1
		}
	}
	return 0
}

// Table renders the top and bottom of the ranking the way the paper's
// Figure 5 prints it.
func (r *Ranking) Table(top, bottom int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s\n", "Instance", "Score")
	n := len(r.Samples)
	if top > n {
		top = n
	}
	for _, s := range r.Samples[:top] {
		fmt.Fprintf(&b, "%-14s %10.4f\n", s.Label(r.Labels), s.Score)
	}
	if bottom > 0 && top < n {
		fmt.Fprintf(&b, "%-14s %10s\n", "...", "...")
		start := n - bottom
		if start < top {
			start = top
		}
		for _, s := range r.Samples[start:] {
			fmt.Fprintf(&b, "%-14s %10.4f\n", s.Label(r.Labels), s.Score)
		}
	}
	return b.String()
}

// ErrNoIntervals is returned when no complete interval of the requested
// event type exists in the input runs.
var ErrNoIntervals = errors.New("core: no complete intervals of the requested event type")

// Mine runs the full pipeline over the given testing runs.
func Mine(runs []RunInput, cfg Config) (*Ranking, error) {
	if cfg.IRQ == 0 {
		return nil, fmt.Errorf("core: config must name the IRQ to mine")
	}
	det := cfg.Detector
	if det == nil {
		det = cfg.defaultDetector()
	}
	feat := cfg.Feature
	if feat == 0 {
		feat = FeatureCounter
	}
	labels := cfg.Labels
	if labels == 0 {
		labels = LabelRunSeq
	}

	allowed := map[int]bool{}
	for _, id := range cfg.Nodes {
		allowed[id] = true
	}

	// Sparse extraction is the default for instruction counters; every
	// other feature kind is low-dimensional already.
	sparse := feat == FeatureCounter && !cfg.DenseFeatures

	// One job per (run, node), in the exact order the sequential loops
	// visited them; results are stitched back in job order so the sample
	// sequence — and therefore the ranking — is identical at any
	// parallelism.
	type job struct {
		runIdx int
		run    RunInput
		ext    *feature.Extractor
		nt     *trace.NodeTrace
	}
	var jobs []job
	for ri, run := range runs {
		if run.Trace == nil {
			return nil, fmt.Errorf("core: run %d has no trace", ri+1)
		}
		ext := feature.NewExtractor(run.Trace)
		for _, nt := range run.Trace.Nodes {
			if len(allowed) > 0 && !allowed[nt.NodeID] {
				continue
			}
			jobs = append(jobs, job{runIdx: ri, run: run, ext: ext, nt: nt})
		}
	}

	type result struct {
		samples  []Sample
		dense    [][]float64
		sparse   []stats.Sparse
		excluded int
		err      error
	}
	results := make([]result, len(jobs))
	mine := func(jb job, res *result) {
		seq := lifecycle.NewSequence(jb.nt)
		ivs, err := seq.Extract()
		if err != nil {
			res.err = fmt.Errorf("core: run %d node %d: %w", jb.runIdx+1, jb.nt.NodeID, err)
			return
		}
		for _, iv := range ivs {
			if iv.IRQ != cfg.IRQ {
				continue
			}
			if !iv.Complete {
				res.excluded++
				continue
			}
			if sparse {
				v, err := jb.ext.CounterSparse(iv)
				if err != nil {
					res.err = fmt.Errorf("core: run %d node %d: %w", jb.runIdx+1, jb.nt.NodeID, err)
					return
				}
				res.sparse = append(res.sparse, v)
			} else {
				v, err := extractFeature(jb.ext, jb.run, feat, iv)
				if err != nil {
					res.err = fmt.Errorf("core: run %d node %d: %w", jb.runIdx+1, jb.nt.NodeID, err)
					return
				}
				res.dense = append(res.dense, v)
			}
			res.samples = append(res.samples, Sample{Run: jb.runIdx + 1, Interval: iv})
		}
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, jb := range jobs {
			mine(jb, &results[i])
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					mine(jobs[i], &results[i])
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	var samples []Sample
	var vectors [][]float64
	var svectors []stats.Sparse
	excluded := 0
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, res.err
		}
		excluded += res.excluded
		samples = append(samples, res.samples...)
		vectors = append(vectors, res.dense...)
		svectors = append(svectors, res.sparse...)
	}

	if sparse {
		return rankSparse(samples, svectors, det, labels, excluded)
	}
	if len(vectors) == 0 {
		return nil, ErrNoIntervals
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("core: sample %d has %d dims, want %d — runs use different binaries", i, len(v), dim)
		}
	}
	feature.Scale01(vectors)
	scores, err := det.Score(vectors)
	if err != nil {
		return nil, fmt.Errorf("core: detector %s: %w", det.Name(), err)
	}
	return assembleRanking(samples, scores, det, labels, excluded, dim), nil
}

// rankSparse is the shared scoring tail of the sparse pipeline — Mine and
// MineBatches both end here: per-dimension [0,1] scaling (in place, exactly
// Scale01's semantics on the densified matrix), detector scoring through
// the sparse fast path when available, and the ascending ranking.
func rankSparse(samples []Sample, svectors []stats.Sparse, det outlier.Detector, labels LabelStyle, excluded int) (*Ranking, error) {
	if len(svectors) == 0 {
		return nil, ErrNoIntervals
	}
	dim := svectors[0].Dim
	for i, v := range svectors {
		if v.Dim != dim {
			return nil, fmt.Errorf("core: sample %d has %d dims, want %d — runs use different binaries", i, v.Dim, dim)
		}
	}
	feature.Scale01Sparse(svectors)
	var scores []float64
	var err error
	if sd, ok := det.(outlier.SparseDetector); ok {
		scores, err = sd.ScoreSparse(svectors)
	} else {
		// Densify the scaled batch for detectors without a sparse path;
		// scaled-then-densified equals densified-then-scaled exactly.
		vectors := make([][]float64, len(svectors))
		for i, v := range svectors {
			vectors[i] = v.Dense()
		}
		scores, err = det.Score(vectors)
	}
	if err != nil {
		return nil, fmt.Errorf("core: detector %s: %w", det.Name(), err)
	}
	return assembleRanking(samples, scores, det, labels, excluded, dim), nil
}

func assembleRanking(samples []Sample, scores []float64, det outlier.Detector, labels LabelStyle, excluded, dim int) *Ranking {
	order := outlier.Rank(scores)
	ranked := make([]Sample, len(order))
	for pos, idx := range order {
		s := samples[idx]
		s.Score = scores[idx]
		ranked[pos] = s
	}
	return &Ranking{
		Detector: det.Name(),
		Labels:   labels,
		Samples:  ranked,
		Excluded: excluded,
		Dim:      dim,
	}
}

// Batch is the streamed output of one run's online anatomizers: every
// interval a node's Streamer finalized, paired with its sparse instruction
// counter at the same index. Batches are what the campaign engine hands to
// MineBatches in place of materialized traces.
type Batch struct {
	// Run is the 1-based index of the testing run (the sample label's
	// "r"). Several batches may share a run (one per monitored node).
	Run int
	// Intervals and Counters are parallel: Counters[i] is the
	// Definition-4 counter of Intervals[i].
	Intervals []lifecycle.Interval
	Counters  []stats.Sparse
}

// MineBatches scores pre-featured interval batches — the streamed
// counterpart of Mine. The anatomize and feature phases already happened
// online during recording, so only the filter → scale → detect → rank tail
// runs here. Batches must arrive in the (run, node, interval) order the
// materialized pipeline would visit, which makes the ranking bit-identical
// to Mine over the equivalent traces.
//
// Only FeatureCounter batches exist (streaming accumulates instruction
// counters); cfg.Feature must be zero or FeatureCounter, and
// cfg.DenseFeatures is not supported. Scaling mutates the batch counters
// in place, exactly as Mine mutates its freshly extracted vectors.
func MineBatches(batches []Batch, cfg Config) (*Ranking, error) {
	if cfg.IRQ == 0 {
		return nil, fmt.Errorf("core: config must name the IRQ to mine")
	}
	if cfg.Feature != 0 && cfg.Feature != FeatureCounter {
		return nil, fmt.Errorf("core: streamed batches carry instruction counters; feature kind %d needs the materialized pipeline", cfg.Feature)
	}
	if cfg.DenseFeatures {
		return nil, fmt.Errorf("core: streamed batches are sparse; DenseFeatures needs the materialized pipeline")
	}
	det := cfg.Detector
	if det == nil {
		det = cfg.defaultDetector()
	}
	labels := cfg.Labels
	if labels == 0 {
		labels = LabelRunSeq
	}
	allowed := map[int]bool{}
	for _, id := range cfg.Nodes {
		allowed[id] = true
	}
	var samples []Sample
	var svectors []stats.Sparse
	excluded := 0
	for bi, b := range batches {
		if len(b.Intervals) != len(b.Counters) {
			return nil, fmt.Errorf("core: batch %d has %d intervals but %d counters", bi, len(b.Intervals), len(b.Counters))
		}
		for i, iv := range b.Intervals {
			if iv.IRQ != cfg.IRQ {
				continue
			}
			if len(allowed) > 0 && !allowed[iv.Node] {
				continue
			}
			if !iv.Complete {
				excluded++
				continue
			}
			samples = append(samples, Sample{Run: b.Run, Interval: iv})
			svectors = append(svectors, b.Counters[i])
		}
	}
	return rankSparse(samples, svectors, det, labels, excluded)
}

func extractFeature(ext *feature.Extractor, run RunInput, feat FeatureKind, iv lifecycle.Interval) ([]float64, error) {
	switch feat {
	case FeatureCounter:
		return ext.Counter(iv)
	case FeatureFuncCount:
		prog := run.Programs[iv.Node]
		if prog == nil {
			return nil, fmt.Errorf("no program for node %d (FeatureFuncCount needs Programs)", iv.Node)
		}
		return ext.FuncCounter(prog, iv)
	case FeatureDuration:
		return ext.Duration(iv), nil
	case FeatureStackDepth:
		return ext.StackDepth(iv)
	default:
		return nil, fmt.Errorf("unknown feature kind %d", feat)
	}
}

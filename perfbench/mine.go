package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"sentomist/internal/core"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/trace"
)

// mineSpec is what one core.Mine call mines: an event type on some nodes.
type mineSpec struct {
	irq    int
	nodes  []int
	labels core.LabelStyle
}

func (m mineSpec) config() core.Config {
	return core.Config{IRQ: m.irq, Nodes: m.nodes, Labels: m.labels}
}

// mine is core.Mine for an untraced op. A traced op instead rebuilds
// core.Mine's default path — sparse instruction counters scored by the
// one-class SVM with its default parameters — from the layers' public
// calls, so each layer gets its own span. Every traced op's digest is
// checked against the pinned core.Mine output. That keeps the rebuild's
// output equal to the program's, not its code path: the per-layer numbers
// describe the rebuilt pipeline, and a growing tracing.overhead_s is the
// sign that the two have drifted apart.
func mine(sc scope, runs []core.RunInput, spec mineSpec, cnt *counters) (*core.Ranking, error) {
	if !sc.traced() {
		return core.Mine(runs, spec.config())
	}
	var r *core.Ranking
	err := sc.call("core.mine", func(c scope) error {
		var err error
		r, err = mineTraced(c, runs, spec, cnt)
		return err
	})
	return r, err
}

func mineTraced(sc scope, runs []core.RunInput, spec mineSpec, cnt *counters) (*core.Ranking, error) {
	allowed := map[int]bool{}
	for _, id := range spec.nodes {
		allowed[id] = true
	}
	// One job per (run, node) in core.Mine's visiting order, fanned out
	// over the same GOMAXPROCS-wide pool and stitched back in order.
	type job struct {
		run int
		ext *feature.Extractor
		nt  *trace.NodeTrace
	}
	type out struct {
		samples   []core.Sample
		vecs      []stats.Sparse
		intervals int
		excluded  int
		err       error
	}
	var jobs []job
	for ri, run := range runs {
		ext := feature.NewExtractor(run.Trace)
		for _, nt := range run.Trace.Nodes {
			if len(allowed) == 0 || allowed[nt.NodeID] {
				jobs = append(jobs, job{run: ri, ext: ext, nt: nt})
			}
		}
	}
	outs := make([]out, len(jobs))
	do := func(i int) {
		jb, o := jobs[i], &outs[i]
		var ivs []lifecycle.Interval
		o.err = sc.call("lifecycle.extract", func(scope) error {
			var err error
			ivs, err = lifecycle.NewSequence(jb.nt).Extract()
			return err
		})
		if o.err != nil {
			return
		}
		o.err = sc.call("feature.counter", func(scope) error {
			for _, iv := range ivs {
				if iv.IRQ != spec.irq {
					continue
				}
				o.intervals++
				if !iv.Complete {
					o.excluded++
					continue
				}
				v, err := jb.ext.CounterSparse(iv)
				if err != nil {
					return fmt.Errorf("run %d node %d: %w", jb.run+1, jb.nt.NodeID, err)
				}
				o.vecs = append(o.vecs, v)
				o.samples = append(o.samples, core.Sample{Run: jb.run + 1, Interval: iv})
			}
			return nil
		})
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	var samples []core.Sample
	var vecs []stats.Sparse
	excluded := 0
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		samples = append(samples, o.samples...)
		vecs = append(vecs, o.vecs...)
		excluded += o.excluded
		cnt.add("lifecycle.intervals", float64(o.intervals))
		cnt.add("lifecycle.excluded", float64(o.excluded))
	}
	if len(vecs) == 0 {
		return nil, core.ErrNoIntervals
	}
	dim := vecs[0].Dim
	for i, v := range vecs {
		if v.Dim != dim {
			return nil, fmt.Errorf("sample %d has %d dims, want %d", i, v.Dim, dim)
		}
	}
	if err := sc.call("bench.count", func(scope) error {
		cnt.add("core.mines", 1)
		cnt.add("feature.dim", float64(dim))
		cnt.add("feature.vectors", float64(len(vecs)))
		for _, v := range vecs {
			cnt.add("feature.nnz", float64(len(v.Idx)))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := sc.call("feature.scale", func(scope) error {
		feature.Scale01Sparse(vecs)
		return nil
	}); err != nil {
		return nil, err
	}
	// The detector's defaults (outlier.OneClassSVM): nu = 0.05, raised to
	// 1/l so the dual stays feasible; default kernel and Gram path.
	nu := math.Max(0.05, 1/float64(len(vecs)))
	var model *svm.Model
	if err := sc.call("svm.train", func(scope) error {
		a0 := allocBytes()
		var err error
		model, err = svm.TrainSparse(vecs, svm.Config{Nu: nu})
		cnt.add("svm.alloc_bytes", allocBytes()-a0)
		return err
	}); err != nil {
		return nil, err
	}
	if err := sc.call("bench.count", func(scope) error {
		cnt.add("svm.samples", float64(len(vecs)))
		cnt.add("svm.distinct", float64(distinct(vecs)))
		cnt.add("svm.iters", float64(model.Iters))
		cnt.add("svm.sv", float64(model.NumSV))
		cnt.add("svm.cache_hits", float64(model.CacheHits))
		cnt.add("svm.cache_misses", float64(model.CacheMisses))
		return nil
	}); err != nil {
		return nil, err
	}
	scores := outlier.Normalize(model.TrainingDecisions())
	ranked := make([]core.Sample, len(scores))
	for pos, idx := range outlier.Rank(scores) {
		s := samples[idx]
		s.Score = scores[idx]
		ranked[pos] = s
	}
	return &core.Ranking{
		Detector: outlier.OneClassSVM{}.Name(),
		Labels:   spec.labels,
		Samples:  ranked,
		Excluded: excluded,
		Dim:      dim,
	}, nil
}

// distinct counts the distinct vectors among scaled samples — the problem
// size left after the SVM's duplicate collapsing.
func distinct(vecs []stats.Sparse) int {
	seen := make(map[string]struct{}, len(vecs))
	var key []byte
	for _, v := range vecs {
		key = key[:0]
		for k, idx := range v.Idx {
			key = binary.LittleEndian.AppendUint32(key, uint32(idx))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v.Val[k]))
		}
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

// Command soak hammers the substrate and the analyzer with randomized
// scenarios (random topologies, task chains, interrupt fuzzing) and checks
// the ground-truth invariant on every run: black-box interval
// identification must reconstruct exactly the intervals the runtime knows
// it executed. Use it after modifying the simulator, the runtime, or the
// analyzer.
//
//	go run ./cmd/soak -runs 200
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/node"
	"sentomist/internal/outlier"
	"sentomist/internal/sim"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/synth"
	"sentomist/internal/trace"
)

func main() {
	var (
		runs        = flag.Int("runs", 100, "number of random scenarios")
		seed        = flag.Uint64("seed", 1, "starting seed")
		nodes       = flag.Int("nodes", 0, "exact node count (0 = random 1..6)")
		seconds     = flag.Float64("seconds", 0.5, "simulated seconds per scenario")
		stream      = flag.Bool("stream", false, "also cross-check the online anatomizer against the two-pass reference on every node")
		mineIRQ     = flag.Int("mine-irq", 0, "also mine every run's intervals of this event type and cross-check the cached-kernel SVM ranking against the dense path bitwise (0 = off)")
		svmCacheMB  = flag.Int("svm-cache-mb", 1, "kernel column cache budget (MiB) for the cached side of the -mine-irq cross-check")
		onlineCheck = flag.Bool("online-check", false, "additionally run every -mine-irq problem through the online miner (refit every batch, warm starts, on-disk spill, delta replay, a second event type, and a compacted pass) and require every finalized ranking to be bit-identical to one-shot MineBatches")
		refCheck    = flag.Bool("ref-check", false, "record every scenario again on the single-step, fixed-quantum reference engine and require the serialized traces to be byte-identical")
	)
	flag.Parse()
	stop, err := startProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
	err = run(*runs, *seed, *nodes, *seconds, *stream, *mineIRQ, *svmCacheMB, *onlineCheck, *refCheck)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

func run(runs int, seed uint64, nodes int, seconds float64, stream bool, mineIRQ, svmCacheMB int, onlineCheck, refCheck bool) error {
	if onlineCheck && mineIRQ == 0 {
		return fmt.Errorf("-online-check needs -mine-irq to select the event type")
	}
	totalIntervals, totalMarkers, totalStreamed, totalMined := 0, 0, 0, 0
	var online onlineTotals
	pool := &lifecycle.ScratchPool{}
	var stats sim.Stats
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		cfg := synth.Config{
			Seed:       s,
			MaxNodes:   6,
			ExactNodes: nodes,
			Seconds:    seconds,
		}
		r, err := synth.Generate(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if err := r.Trace.Validate(); err != nil {
			return fmt.Errorf("seed %d: invalid trace: %w", s, err)
		}
		addStats(&stats, r.Stats)
		if refCheck {
			if err := verifyReference(cfg, r); err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
		}
		for _, nt := range r.Trace.Nodes {
			totalMarkers += len(nt.Markers)
			n, err := verify(nt)
			if err != nil {
				return fmt.Errorf("seed %d node %d: %w", s, nt.NodeID, err)
			}
			totalIntervals += n
			if stream {
				n, err := verifyStream(nt, pool)
				if err != nil {
					return fmt.Errorf("seed %d node %d: %w", s, nt.NodeID, err)
				}
				totalStreamed += n
			}
		}
		if mineIRQ != 0 {
			n, err := verifyMine(r.Trace, mineIRQ, int64(svmCacheMB)<<20)
			if err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
			totalMined += n
			if onlineCheck {
				if err := verifyOnline(r.Trace, mineIRQ, &online); err != nil {
					return fmt.Errorf("seed %d: %w", s, err)
				}
			}
		}
		if (i+1)%25 == 0 {
			fmt.Printf("%d/%d scenarios ok (%d intervals verified)\n", i+1, runs, totalIntervals)
		}
	}
	fmt.Printf("soak passed: %d scenarios, %d markers, %d intervals verified against ground truth\n",
		runs, totalMarkers, totalIntervals)
	if stream {
		fmt.Printf("streaming anatomizer: %d intervals bit-identical to the two-pass reference\n",
			totalStreamed)
	}
	if mineIRQ != 0 {
		fmt.Printf("mining cross-check: %d intervals ranked, cached kernel bit-identical to dense\n",
			totalMined)
	}
	if onlineCheck {
		fmt.Printf("online cross-check: %d intervals through %d warm refits (spilled, delta replay verified by counters, two event types, plus a compacted pass), finalized rankings bit-identical to one-shot\n",
			online.intervals, online.refits)
		fmt.Printf("online refits: SMO ran over %d distinct counter vectors for %d scored intervals (summed over refits)\n",
			online.groups, online.scored)
	}
	if refCheck {
		fmt.Printf("reference cross-check: every serialized trace byte-identical to the reference engine\n")
	}
	fmt.Printf("scheduler: %d rounds, %d solo jumps, %d idle jumps, %d sections (%d advances, %d staged events)\n",
		stats.Rounds, stats.SoloJumps, stats.IdleJumps,
		stats.ParallelSections, stats.ParallelAdvances, stats.StagedEvents)
	return nil
}

// addStats accumulates one run's scheduler counters into the campaign total.
func addStats(total *sim.Stats, s sim.Stats) {
	total.Rounds += s.Rounds
	total.IdleJumps += s.IdleJumps
	total.SoloJumps += s.SoloJumps
	total.ParallelSections += s.ParallelSections
	total.HorizonBarriers += s.HorizonBarriers
	total.ParallelAdvances += s.ParallelAdvances
	total.StagedEvents += s.StagedEvents
}

// verifyReference re-records the scenario on the single-step,
// fixed-quantum reference engine and requires the serialized trace to be
// byte-identical to the default engine's recording (the trace-equivalence
// gate of the scheduler's sections, on live random topologies).
func verifyReference(cfg synth.Config, got *apps.Run) error {
	sc, err := synth.Build(cfg)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	sc.SetReference(true)
	seconds := cfg.Seconds
	if seconds <= 0 {
		seconds = 0.5 // synth.Generate's default
	}
	ref, err := sc.Run(seconds)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	var a, b bytes.Buffer
	if err := ref.Trace.WriteBinary(&a); err != nil {
		return err
	}
	if err := got.Trace.WriteBinary(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("reference: trace diverges from the reference engine (%d vs %d bytes)",
			b.Len(), a.Len())
	}
	return nil
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

// verifyMine ranks one run's intervals through the dense-Gram SVM and
// through the bounded kernel column cache, requiring bit-identical
// rankings (same order, same scores). Runs without intervals of the event
// type are skipped.
func verifyMine(t *trace.Trace, irq int, cacheBytes int64) (int, error) {
	// Every synth node runs its own generated program, so counters from
	// different nodes have different dimensionalities; mine node 0 (it
	// exists in every scenario).
	cfg := core.Config{IRQ: irq, Nodes: []int{0}}
	ref := cfg
	ref.Detector = denseGramSVM{}
	dense, err := core.Mine([]core.RunInput{{Trace: t}}, ref)
	if errors.Is(err, core.ErrNoIntervals) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	cfg.SVMCacheBytes = cacheBytes
	cached, err := core.Mine([]core.RunInput{{Trace: t}}, cfg)
	if err != nil {
		return 0, err
	}
	if len(cached.Samples) != len(dense.Samples) {
		return 0, fmt.Errorf("mine: cached ranking has %d samples, dense %d", len(cached.Samples), len(dense.Samples))
	}
	for i := range dense.Samples {
		if cached.Samples[i] != dense.Samples[i] {
			return 0, fmt.Errorf("mine: rank %d diverges: cached %+v, dense %+v",
				i+1, cached.Samples[i], dense.Samples[i])
		}
	}
	return len(dense.Samples), nil
}

// onlineTotals accumulates the -online-check counters across scenarios.
type onlineTotals struct {
	intervals, refits int
	groups, scored    int // Σ OnlineRanking.Groups and .Total over refits
}

// verifyOnline streams one run's batches through the online miner — refit
// after every batch, warm starts, an on-disk spill, delta replay, and a
// second event type mined over the shared stream — and requires every
// finalized ranking to be bit-identical to one-shot MineBatches for its
// event type. Along the way the published replay counters are checked:
// every refit accounts for all live spill blocks, and a delta refit decodes
// only the blocks appended since the previous one. A second pass with
// tiny-block compaction enabled must finalize identically. Runs without
// intervals of any checked event type are skipped.
func verifyOnline(t *trace.Trace, irq int, totals *onlineTotals) error {
	alt := 1
	if irq == 1 {
		alt = 4 // radio-rx alongside timer0
	}
	cfg := core.Config{IRQ: irq, Nodes: []int{0}}
	// One-shot references, one per event type. MineBatches scales counters
	// in place, so each side gets its own freshly extracted batch stream.
	wants := map[int]*core.Ranking{}
	for _, q := range []int{irq, alt} {
		qcfg := cfg
		qcfg.IRQ = q
		oneShot, err := core.ExtractBatches([]core.RunInput{{Trace: t}}, qcfg)
		if err != nil {
			return fmt.Errorf("online: %w", err)
		}
		want, err := core.MineBatches(oneShot, qcfg)
		if errors.Is(err, core.ErrNoIntervals) {
			continue
		}
		if err != nil {
			return err
		}
		wants[q] = want
		totals.intervals += len(want.Samples)
	}
	if len(wants) == 0 {
		return nil
	}
	batches, err := core.ExtractBatchesFor([]core.RunInput{{Trace: t}}, cfg, irq, alt)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	spill, err := os.MkdirTemp("", "sentomist-soak-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)

	finalize := func(m *core.OnlineMiner, label string) error {
		all, err := m.FinalizeAll()
		if err != nil {
			return fmt.Errorf("online %s: %w", label, err)
		}
		for q, want := range wants {
			got := all[q]
			if got == nil {
				return fmt.Errorf("online %s: irq %d missing from FinalizeAll", label, q)
			}
			if len(got.Samples) != len(want.Samples) || got.Excluded != want.Excluded {
				return fmt.Errorf("online %s irq %d: %d samples (%d excluded), one-shot %d (%d)",
					label, q, len(got.Samples), got.Excluded, len(want.Samples), want.Excluded)
			}
			for i := range want.Samples {
				if got.Samples[i] != want.Samples[i] {
					return fmt.Errorf("online %s irq %d: rank %d diverges: online %+v, one-shot %+v",
						label, q, i+1, got.Samples[i], want.Samples[i])
				}
			}
		}
		for q := range all {
			if wants[q] == nil {
				return fmt.Errorf("online %s: FinalizeAll returned irq %d, one-shot found no intervals", label, q)
			}
		}
		return nil
	}

	// Pass 1: spilled, delta replay, compaction disabled — the replay
	// counters must prove a delta refit decodes only the appended blocks.
	var counterErr error
	prevLive, lastBatches := 0, -1
	miner, err := core.NewOnlineMiner(core.OnlineConfig{
		Config:       cfg,
		IRQs:         []int{alt},
		RefitEvery:   1,
		TopK:         5,
		SpillDir:     spill,
		SpillBlock:   3, // force multiple blocks
		SpillCompact: -1,
		OnRanking: func(r *core.OnlineRanking) {
			totals.refits++
			totals.groups += r.Groups
			totals.scored += r.Total
			if counterErr != nil {
				return
			}
			if r.BlocksDecoded+r.BlocksSkipped != r.SpilledBlocks {
				counterErr = fmt.Errorf("online: refit %d irq %d decoded %d + skipped %d != %d live blocks",
					r.Refit, r.IRQ, r.BlocksDecoded, r.BlocksSkipped, r.SpilledBlocks)
				return
			}
			if r.Batches == lastBatches {
				return // same refit event, same replay counters
			}
			if r.Delta && (r.BlocksSkipped != prevLive || r.BlocksDecoded != r.SpilledBlocks-prevLive) {
				counterErr = fmt.Errorf("online: delta refit %d decoded %d/skipped %d with %d live blocks (%d at the previous refit)",
					r.Refit, r.BlocksDecoded, r.BlocksSkipped, r.SpilledBlocks, prevLive)
				return
			}
			prevLive, lastBatches = r.SpilledBlocks, r.Batches
		},
	})
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := miner.Add(b); err != nil {
			miner.Close()
			return fmt.Errorf("online: %w", err)
		}
	}
	if counterErr != nil {
		miner.Close()
		return counterErr
	}
	if err := finalize(miner, "delta"); err != nil {
		return err
	}

	// Pass 2: aggressive tiny-block compaction; results must not change.
	miner, err = core.NewOnlineMiner(core.OnlineConfig{
		Config:       cfg,
		IRQs:         []int{alt},
		RefitEvery:   1,
		TopK:         5,
		SpillDir:     spill,
		SpillBlock:   3,
		SpillCompact: 2,
	})
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := miner.Add(b); err != nil {
			miner.Close()
			return fmt.Errorf("online compacted: %w", err)
		}
	}
	if err := finalize(miner, "compacted"); err != nil {
		return err
	}
	return nil
}

// verifyStream replays the node's markers through the online anatomizer and
// checks intervals and counters are bit-identical to the two-pass
// reference (Extract + CounterSparse).
func verifyStream(nt *trace.NodeTrace, pool *lifecycle.ScratchPool) (int, error) {
	want, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		return 0, err
	}
	ext := feature.NewExtractor(&trace.Trace{Nodes: []*trace.NodeTrace{nt}})
	got, cnt, err := lifecycle.Replay(nt, pool)
	if err != nil {
		return 0, fmt.Errorf("stream: %w", err)
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("stream: %d intervals, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return 0, fmt.Errorf("stream: interval %d: %+v, reference %+v", i, got[i], want[i])
		}
		wantC, err := ext.CounterSparse(want[i])
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(cnt[i], wantC) {
			return 0, fmt.Errorf("stream: interval %d: counter diverges from reference", i)
		}
	}
	return len(want), nil
}

// verify checks one node's extracted intervals against runtime truth and
// returns how many were verified.
func verify(nt *trace.NodeTrace) (int, error) {
	ivs, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		return 0, err
	}
	start := make(map[int]int)
	end := make(map[int]int)
	for i, m := range nt.Markers {
		inst := nt.TruthInstance[i]
		if inst == node.BootInstance {
			continue
		}
		switch m.Kind {
		case trace.Int:
			if _, seen := start[inst]; !seen {
				start[inst] = i
			}
		case trace.TaskEnd, trace.Reti:
			end[inst] = i
		}
	}
	verified := 0
	for _, iv := range ivs {
		if !iv.Complete {
			continue
		}
		if iv.StartMarker != start[iv.Truth] || iv.EndMarker != end[iv.Truth] {
			return 0, fmt.Errorf("instance %d: extracted [%d,%d], truth [%d,%d]",
				iv.Truth, iv.StartMarker, iv.EndMarker, start[iv.Truth], end[iv.Truth])
		}
		verified++
	}
	return verified, nil
}

// Command rank loads saved lifecycle traces and ranks their event-handling
// intervals with a chosen outlier detector — the offline back end of the
// Sentomist pipeline.
//
// Usage:
//
//	rank -irq 4 -nodes 1 run.trace [more.trace ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sentomist"
	"sentomist/internal/bench"
)

type options struct {
	irq           int
	nodesCSV      string
	detector      string
	nu            float64
	top           int
	bottom        int
	parallelism   int
	svmCacheMB    int
	onlineRefit   int
	onlineTopK    int
	onlineIRQsCSV string
	fullReplay    bool
	spillDir      string
	spillBlock    int
	spillCompact  int
	bench         bool
	benchBaseline string
	benchUpdate   string
}

func main() {
	var opt options
	flag.IntVar(&opt.irq, "irq", 0, "event type (interrupt number) to mine: 1=timer0, 2=timer1, 3=adc, 4=radio-rx, 5=txdone")
	flag.StringVar(&opt.nodesCSV, "nodes", "", "comma-separated node IDs to mine (empty = all nodes)")
	flag.StringVar(&opt.detector, "detector", "svm", "outlier detector: svm, pca, knn, mahalanobis, kernel-pca")
	flag.Float64Var(&opt.nu, "nu", 0.05, "one-class SVM nu parameter")
	flag.IntVar(&opt.top, "top", 10, "rows to print from the top")
	flag.IntVar(&opt.bottom, "bottom", 2, "rows to print from the bottom")
	flag.IntVar(&opt.parallelism, "parallelism", 0, "worker pool for anatomize/feature and the SVM kernel-column fills (0 = GOMAXPROCS, 1 = sequential); the ranking is identical at any setting")
	flag.IntVar(&opt.svmCacheMB, "svm-cache-mb", 0, "budget in MiB of the on-demand kernel column cache the SVM trains through (0 = the 256 MiB default); the ranking is bit-identical at any budget")
	flag.IntVar(&opt.onlineRefit, "online-refit", 0, "rank as you go: refit the SVM warm every N ingested batches and print each intermediate top-K; the final ranking is bit-identical to the one-shot path (svm detector only)")
	flag.IntVar(&opt.onlineTopK, "online-topk", 10, "intermediate rankings keep the K most suspicious intervals (with -online-refit)")
	flag.StringVar(&opt.onlineIRQsCSV, "online-irqs", "", "comma-separated additional event types mined alongside -irq, one incremental solver each over the shared stream (with -online-refit); every refit prints one top-K per type")
	flag.BoolVar(&opt.fullReplay, "online-full-replay", false, "re-decode the whole spill at every refit instead of only the delta since the previous one (baseline; results identical)")
	flag.StringVar(&opt.spillDir, "spill-dir", "", "spill featured intervals to a columnar SENTCOL1 file in this directory instead of holding them in memory between refits (with -online-refit; results identical)")
	flag.IntVar(&opt.spillBlock, "spill-block", 0, "intervals per spill block (0 = default 512; results identical at any value)")
	flag.IntVar(&opt.spillCompact, "spill-compact", 0, "merge a trailing run of this many undersized spill blocks into one (0 = default 8, negative disables; results identical)")
	flag.BoolVar(&opt.bench, "bench", false, "evaluate the Sentomist-bench seeded-bug corpus (precision@k and MRR per bug class) instead of ranking trace files")
	flag.StringVar(&opt.benchBaseline, "bench-baseline", "", "with -bench: compare the report against this JSON baseline and exit nonzero on any difference")
	flag.StringVar(&opt.benchUpdate, "bench-update", "", "with -bench: write the report to this JSON baseline file")
	flag.Parse()
	if !opt.bench && (opt.irq == 0 || flag.NArg() == 0) {
		fmt.Fprintln(os.Stderr, "rank: usage: rank -irq N [-nodes 1,2] trace [trace...]")
		os.Exit(2)
	}
	stop, err := startProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rank:", err)
		os.Exit(1)
	}
	if opt.bench {
		err = runBench(opt)
	} else {
		err = run(opt, flag.Args())
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rank:", err)
		os.Exit(1)
	}
}

func run(opt options, paths []string) error {
	var nodeIDs []int
	if opt.nodesCSV != "" {
		for _, part := range strings.Split(opt.nodesCSV, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad node id %q: %w", part, err)
			}
			nodeIDs = append(nodeIDs, id)
		}
	}
	cacheBytes := int64(opt.svmCacheMB) << 20
	var det sentomist.Detector
	switch strings.ToLower(opt.detector) {
	case "svm":
		det = sentomist.SVMDetector{
			Nu:          opt.nu,
			Parallelism: opt.parallelism,
			CacheBytes:  cacheBytes,
		}
	case "pca":
		det = sentomist.PCADetector(0)
	case "knn":
		det = sentomist.KNNDetector(0)
	case "mahalanobis":
		det = sentomist.MahalanobisDetector()
	case "kernel-pca", "kernelpca":
		det = sentomist.KernelPCADetector(nil, 0)
	default:
		return fmt.Errorf("unknown detector %q", opt.detector)
	}

	var inputs []sentomist.RunInput
	for _, path := range paths {
		t, err := sentomist.LoadTrace(path)
		if err != nil {
			return err
		}
		inputs = append(inputs, sentomist.RunInput{Trace: t})
	}
	labels := sentomist.LabelRunSeq
	if len(paths) == 1 {
		labels = sentomist.LabelNodeSeq
	}
	if opt.onlineRefit > 0 || opt.spillDir != "" {
		return runOnline(opt, inputs, nodeIDs, labels)
	}
	ranking, err := sentomist.Mine(inputs, sentomist.MineConfig{
		IRQ:         opt.irq,
		Nodes:       nodeIDs,
		Detector:    det,
		Labels:      labels,
		Parallelism: opt.parallelism,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d intervals (%d excluded as incomplete), %d dims, detector %s:\n\n",
		len(ranking.Samples), ranking.Excluded, ranking.Dim, ranking.Detector)
	fmt.Print(ranking.Table(opt.top, opt.bottom))
	return nil
}

// runOnline is the rank-as-you-go path: traces become a batch stream, the
// online miner refits warm every -online-refit batches printing each
// intermediate top-K, and the final table comes from Finalize — bit-identical
// to the one-shot path over the same traces.
func runOnline(opt options, inputs []sentomist.RunInput, nodeIDs []int, labels sentomist.LabelStyle) error {
	if strings.ToLower(opt.detector) != "svm" {
		return fmt.Errorf("-online-refit drives the incremental one-class SVM; -detector %s is not supported online", opt.detector)
	}
	if opt.nu != 0.05 {
		return fmt.Errorf("online mining uses the default nu = 0.05; -nu cannot be changed")
	}
	var extraIRQs []int
	if opt.onlineIRQsCSV != "" {
		for _, part := range strings.Split(opt.onlineIRQsCSV, ",") {
			irq, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad event type %q in -online-irqs: %w", part, err)
			}
			extraIRQs = append(extraIRQs, irq)
		}
	}
	cfg := sentomist.MineConfig{
		IRQ:           opt.irq,
		Nodes:         nodeIDs,
		Labels:        labels,
		Parallelism:   opt.parallelism,
		SVMCacheBytes: int64(opt.svmCacheMB) << 20,
	}
	batches, err := sentomist.ExtractBatchesFor(inputs, cfg, append([]int{opt.irq}, extraIRQs...)...)
	if err != nil {
		return err
	}
	miner, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
		Config:       cfg,
		IRQs:         extraIRQs,
		RefitEvery:   opt.onlineRefit,
		TopK:         opt.onlineTopK,
		SpillDir:     opt.spillDir,
		SpillBlock:   opt.spillBlock,
		SpillCompact: opt.spillCompact,
		FullReplay:   opt.fullReplay,
		OnRanking:    printOnlineRanking,
	})
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := miner.Add(b); err != nil {
			miner.Close()
			return err
		}
	}
	if len(extraIRQs) == 0 {
		ranking, err := miner.Finalize()
		if err != nil {
			return err
		}
		fmt.Printf("\nfinal: %d intervals (%d excluded as incomplete), %d dims, detector %s:\n\n",
			len(ranking.Samples), ranking.Excluded, ranking.Dim, ranking.Detector)
		fmt.Print(ranking.Table(opt.top, opt.bottom))
		return nil
	}
	irqs := miner.IRQs()
	all, err := miner.FinalizeAll()
	if err != nil {
		return err
	}
	for _, irq := range irqs {
		ranking := all[irq]
		if ranking == nil {
			fmt.Printf("\nfinal irq %d: no complete intervals\n", irq)
			continue
		}
		fmt.Printf("\nfinal irq %d: %d intervals (%d excluded as incomplete), %d dims, detector %s:\n\n",
			irq, len(ranking.Samples), ranking.Excluded, ranking.Dim, ranking.Detector)
		fmt.Print(ranking.Table(opt.top, opt.bottom))
	}
	return nil
}

// printOnlineRanking prints one intermediate refit: solver provenance,
// replay observability (delta vs full, blocks decoded/skipped, spill
// shape), and the top-K table.
func printOnlineRanking(r *sentomist.OnlineRanking) {
	mode := "warm"
	if !r.Warm {
		mode = "cold"
	}
	if r.Rebuilt {
		mode += "+rebuilt-cache"
	}
	replay := "full"
	if r.Delta {
		replay = "delta"
	}
	fmt.Printf("refit %d irq %d (%s, %s replay): %d batches, %d intervals (%d distinct), %d iters; decoded %d blocks (%d samples), skipped %d; spill %d blocks",
		r.Refit, r.IRQ, mode, replay, r.Batches, r.Total, r.Groups, r.Iters,
		r.BlocksDecoded, r.SamplesReplayed, r.BlocksSkipped, r.SpilledBlocks)
	if r.SpilledBytes > 0 {
		fmt.Printf(" / %d bytes", r.SpilledBytes)
	}
	if r.Compactions > 0 {
		fmt.Printf(", %d compactions", r.Compactions)
	}
	fmt.Printf(" — top %d:\n", len(r.Samples))
	for i, s := range r.Samples {
		fmt.Printf("  #%-3d run %d seq %d node %d  score %.6f\n",
			i+1, s.Run, s.Interval.Seq, s.Interval.Node, s.Score)
	}
}

// runBench is the Sentomist-bench entry point: evaluate the seeded-bug
// corpus, print the ranking-quality report, and optionally gate it against
// (or regenerate) the checked-in baseline.
func runBench(opt options) error {
	rep, err := bench.EvaluateAll(bench.Catalog())
	if err != nil {
		return err
	}
	fmt.Print(rep.Format())
	if opt.benchUpdate != "" {
		if err := bench.WriteBaseline(rep, opt.benchUpdate); err != nil {
			return err
		}
		fmt.Printf("\nbaseline written to %s\n", opt.benchUpdate)
	}
	if opt.benchBaseline != "" {
		want, err := bench.LoadBaseline(opt.benchBaseline)
		if err != nil {
			return err
		}
		diffs := bench.Compare(rep, want)
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "\nranking quality diverged from %s:\n", opt.benchBaseline)
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			return fmt.Errorf("%d difference(s) against the baseline (regenerate deliberately with -bench-update)", len(diffs))
		}
		fmt.Printf("\nbaseline %s: match\n", opt.benchBaseline)
	}
	return nil
}

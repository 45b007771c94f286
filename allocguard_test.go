package sentomist_test

import (
	"runtime"
	"testing"

	"sentomist"
	"sentomist/internal/dev"
	"sentomist/internal/experiments"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/medium"
	"sentomist/internal/node"
	"sentomist/internal/randx"
	"sentomist/internal/sim"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/synth"
	"sentomist/internal/trace"
)

// Allocation-profile thresholds for the streaming Case-I end-to-end op
// (five 10-second runs recorded, anatomized, featured, and mined via the
// campaign engine). The canonical measurement is in BENCH_PR3.json
// (4,511 allocs/op, ~2.94 MB/op); the thresholds carry ~40% headroom for
// runner variance. If a change regresses past them, either fix the
// allocation or consciously re-baseline both this file and
// BENCH_PR3.json.
const (
	maxStreamingAllocsPerOp = 6_500
	maxStreamingBytesPerOp  = 4_200_000
)

// TestStreamingAllocBudget guards the streaming pipeline's allocation
// profile in CI: the pooled, online path must not quietly regress back
// toward materialized-trace costs.
func TestStreamingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CaseICampaign(experiments.CaseISeedBase); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("streaming Case-I end to end: %d allocs/op, %d B/op over %d op(s)", allocs, bytes, res.N)
	if allocs > maxStreamingAllocsPerOp {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR3.json)", allocs, maxStreamingAllocsPerOp)
	}
	if bytes > maxStreamingBytesPerOp {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR3.json)", bytes, maxStreamingBytesPerOp)
	}
}

// Cached-training allocation thresholds: 1500 distinct counters trained
// through a 4 MiB kernel column cache. The dense Gram at this size is
// 8·1500² = 18 MB; the cached path's whole-training footprint (columns +
// solver state + model) measures ~4.6 MB (BENCH_PR4.json), and the ceiling
// carries headroom for runner variance while staying far under the dense
// matrix alone.
const (
	cachedTrainSamples   = 1500
	cachedTrainCacheMiB  = 4
	maxCachedTrainBytes  = 8_000_000
	maxCachedTrainAllocs = 6_000
)

// Online-ingest allocation thresholds: 1500 block-jittered counters
// streamed through the filter → scale-statistics → columnar-disk-spill path
// with refits disabled (the between-refit resident regime). The canonical
// measurement is ~4.15 MB/op and ~4,800 allocs/op (BENCH_PR7.json) — the
// traffic is dominated by the per-interval counter copies the ingest
// contract requires — and the ceilings carry ~40% headroom for runner
// variance.
const (
	onlineIngestSamples   = 1500
	onlineIngestDim       = 512
	onlineIngestBatches   = 16
	maxOnlineIngestBytes  = 6_500_000
	maxOnlineIngestAllocs = 7_000
)

// onlineGuardBatches builds the shared batch stream both online allocation
// guards ingest: block-jittered counters split evenly across batches.
// OnlineMiner.Add copies counters, so the same batches can be re-ingested
// every benchmark iteration.
func onlineGuardBatches() []sentomist.MineBatch {
	counters := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: onlineIngestSamples, Dim: onlineIngestDim,
		BlockJitter: true, AnomalyRate: -1,
	})
	per := (onlineIngestSamples + onlineIngestBatches - 1) / onlineIngestBatches
	var batches []sentomist.MineBatch
	for start := 0; start < onlineIngestSamples; start += per {
		end := start + per
		if end > onlineIngestSamples {
			end = onlineIngestSamples
		}
		b := sentomist.MineBatch{Run: len(batches) + 1}
		for i := start; i < end; i++ {
			b.Intervals = append(b.Intervals, sentomist.Interval{
				IRQ: 1, Seq: i, Node: 1, Complete: true, EndsWithTask: true,
			})
			b.Counters = append(b.Counters, counters[i])
		}
		batches = append(batches, b)
	}
	return batches
}

// TestOnlineIngestAllocBudget guards the online miner's ingest path: with
// intervals spilling to disk, allocation traffic must stay proportional to
// the counters ingested (copy + spill buffers), not creep toward holding the
// scaled training set resident between refits.
func TestOnlineIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	batches := onlineGuardBatches()
	spillDir := t.TempDir()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
				Config:   sentomist.MineConfig{IRQ: 1},
				SpillDir: spillDir,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range batches {
				if err := m.Add(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("online ingest (l=%d, disk spill): %d allocs/op, %d B/op over %d op(s)",
		onlineIngestSamples, allocs, bytes, res.N)
	if bytes > maxOnlineIngestBytes {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR7.json)", bytes, maxOnlineIngestBytes)
	}
	if allocs > maxOnlineIngestAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR7.json)", allocs, maxOnlineIngestAllocs)
	}
}

// Online-refit allocation thresholds: the ingest stream above re-mined with
// a refit every other batch (8 warm refits per op, l growing to 1500) and
// the scale bounds pinned so every refit after the first replays only the
// delta. The refit path reuses the resident scaled set, the solver's warm
// coefficient buffer, and the per-state bound scratch; what remains is the
// solve itself plus the delta block decode. The canonical measurement is
// ~24.3 MB/op and ~10,500 allocs/op (BENCH_PR10.json); the ceilings carry
// ~40% headroom for runner variance.
const (
	onlineRefitEvery     = 2
	maxOnlineRefitBytes  = 34_000_000
	maxOnlineRefitAllocs = 15_000
)

// TestOnlineRefitAllocBudget guards the warm delta-refit path: refitting
// every other batch must not allocate per-refit copies of the whole
// training set (resident samples, warm starts, and bound scratch are
// reused), only the delta decode and the solver's own working set.
func TestOnlineRefitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	batches := onlineGuardBatches()
	// Pin the scale bounds in the first batch — one sample at every
	// dimension's global maximum plus one empty sample — so refits after the
	// first see bitwise-stable bounds and take the delta-replay path.
	hi := make([]float64, onlineIngestDim)
	for _, b := range batches {
		for _, c := range b.Counters {
			for k, d := range c.Idx {
				if c.Val[k] > hi[d] {
					hi[d] = c.Val[k]
				}
			}
		}
	}
	full := stats.Sparse{Dim: onlineIngestDim}
	for d, v := range hi {
		if v > 0 {
			full.Idx = append(full.Idx, int32(d))
			full.Val = append(full.Val, v)
		}
	}
	pin := batches[0]
	batches[0] = sentomist.MineBatch{
		Run: pin.Run,
		Intervals: append([]sentomist.Interval{
			{IRQ: 1, Seq: onlineIngestSamples + 1, Node: 1, Complete: true, EndsWithTask: true},
			{IRQ: 1, Seq: onlineIngestSamples + 2, Node: 1, Complete: true, EndsWithTask: true},
		}, pin.Intervals...),
		Counters: append([]stats.Sparse{full, {Dim: onlineIngestDim}}, pin.Counters...),
	}
	spillDir := t.TempDir()
	var refits, deltas int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refits, deltas = 0, 0
			m, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
				Config:     sentomist.MineConfig{IRQ: 1},
				SpillDir:   spillDir,
				RefitEvery: onlineRefitEvery,
				TopK:       10,
				OnRanking: func(r *sentomist.OnlineRanking) {
					refits++
					if r.Delta {
						deltas++
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range batches {
				if err := m.Add(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if refits == 0 || deltas != refits-1 {
		t.Fatalf("%d of %d refits were delta replays, want all but the first", deltas, refits)
	}
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("online delta refits (l=%d, refit every %d batches, %d refits/op): %d allocs/op, %d B/op over %d op(s)",
		onlineIngestSamples, onlineRefitEvery, refits, allocs, bytes, res.N)
	if bytes > maxOnlineRefitBytes {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR10.json)", bytes, maxOnlineRefitBytes)
	}
	if allocs > maxOnlineRefitAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR10.json)", allocs, maxOnlineRefitAllocs)
	}
}

// TestCachedTrainingAllocBudget guards the on-demand kernel cache's
// allocation profile: training at a fixed budget must stay bounded by the
// budget, not creep back toward materializing the l×l Gram.
func TestCachedTrainingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	samples := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: cachedTrainSamples, Dim: 512, Distinct: true,
	})
	cfg := svm.Config{Nu: 0.05, Gram: svm.GramCached, CacheBytes: cachedTrainCacheMiB << 20}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svm.TrainSparse(samples, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("cached training (l=%d, %d MiB cache): %d allocs/op, %d B/op over %d op(s)",
		cachedTrainSamples, cachedTrainCacheMiB, allocs, bytes, res.N)
	if bytes > maxCachedTrainBytes {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR4.json)", bytes, maxCachedTrainBytes)
	}
	if allocs > maxCachedTrainAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR4.json)", allocs, maxCachedTrainAllocs)
	}
}

// TestCounterSparseAllocBudget guards sparse counter extraction: with its
// per-pc scratch pooled, one call allocates only the two output slices
// (Idx and Val) — no sort scratch, no per-delta pairs.
func TestCounterSparseAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: 20, Seconds: 10, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	all, err := lifecycle.NewSequence(run.Trace.Node(sentomist.CaseISensorID)).Extract()
	if err != nil {
		t.Fatal(err)
	}
	var ivs []lifecycle.Interval
	for _, iv := range all {
		if iv.IRQ == sentomist.IRQADC && iv.Complete {
			ivs = append(ivs, iv)
		}
	}
	ext := feature.NewExtractor(run.Trace)
	allocs := testing.AllocsPerRun(20, func() {
		for _, iv := range ivs {
			if _, err := ext.CounterSparse(iv); err != nil {
				t.Fatal(err)
			}
		}
	})
	perCall := allocs / float64(len(ivs))
	t.Logf("CounterSparse over %d Case-I intervals: %.2f allocs/call", len(ivs), perCall)
	if perCall > 2 {
		t.Errorf("allocs/call regressed: %.2f > 2 (the Idx and Val output slices)", perCall)
	}
}

// Duplicate-heavy refit thresholds: 20,000 counters over 5 code paths × 4
// loop counts (at most 20 distinct vectors), refit warm at eight growing
// prefixes. The solver keeps its gradient and kernel columns per distinct
// vector, so what a refit allocates scales with l only through α, the
// training decisions and the support-vector list: ~4.9 MB/op, against
// ~21.6 MB/op when columns and gradients were l-length (and columns were
// re-extended at every growth). The ceiling carries ~40% headroom.
const (
	dupRefitSamples  = 20_000
	dupRefitSteps    = 8
	maxDupRefitBytes = 7_000_000
)

// TestDuplicateRefitAllocBudget guards the grouped solver's memory shape on
// the campaign regime: many samples, few distinct counters.
func TestDuplicateRefitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	samples := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: dupRefitSamples, Dim: 512, Paths: 5, AnomalyRate: -1,
	})
	var groups int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc := svm.NewIncremental(svm.Config{Nu: 0.05})
			for step := 1; step <= dupRefitSteps; step++ {
				m, err := inc.Refit(samples[:step*dupRefitSamples/dupRefitSteps], true)
				if err != nil {
					b.Fatal(err)
				}
				groups = m.Groups
			}
		}
	})
	if groups < 2 || groups > 20 {
		t.Fatalf("final refit ran over %d groups, want the duplicate-heavy regime (2..20)", groups)
	}
	bytes := res.AllocedBytesPerOp()
	t.Logf("duplicate-heavy refits (l=%d over %d groups, %d refits/op): %d allocs/op, %d B/op over %d op(s)",
		dupRefitSamples, groups, dupRefitSteps, res.AllocsPerOp(), bytes, res.N)
	if bytes > maxDupRefitBytes {
		t.Errorf("B/op regressed: %d > %d (threshold)", bytes, maxDupRefitBytes)
	}
}

// Section allocation guard: the 12-node multihop chain, warmed for
// sectionWarmCycles, then advanced sectionSteps times by sectionStepCycles
// more. Every scheduler scratch buffer, medium free list and recorder
// buffer is grown by then, so a section itself must allocate nothing; the
// only allocations left are the radio frames the chain sends during the
// window (payload copies and the delivery log). The budget of 0.05
// allocations per section leaves room for those and fails as soon as
// sections allocate per section again (a pool dispatch descriptor per pass
// costs at least one per section).
const (
	sectionNodes        = 12
	sectionWarmCycles   = 500_000
	sectionStepCycles   = 10_000
	sectionSteps        = 30
	maxAllocsPerSection = 0.05
)

// chainSim rebuilds the benchmark chain's nodes around its assembled
// firmware, with every node's markers discarded (Recorder.SetSink(nil,
// true)) when discard is set, and returns the simulator over them.
func chainSim(t *testing.T, discard bool) *sim.Sim {
	t.Helper()
	sc, err := synth.BuildMultihop(synth.MultihopConfig{Nodes: sectionNodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.Run(0) // assembles the firmware; runs no cycles
	if err != nil {
		t.Fatal(err)
	}
	net := medium.NewNetwork(randx.New(1))
	nodes := make([]*node.Node, sectionNodes)
	for id := range nodes {
		n, err := node.New(node.Config{ID: id, Program: run.Programs[id], Truth: true, DiscardMarkers: discard})
		if err != nil {
			t.Fatal(err)
		}
		n.Attach(dev.NewTimer(dev.IRQTimer0, n,
			dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale))
		radio := dev.NewRadio(n)
		mac := net.NewMAC(id)
		radio.SetTransceiver(mac)
		mac.SetClient(radio)
		n.Attach(radio)
		nodes[id] = n
	}
	for id := 1; id < sectionNodes; id++ {
		net.AddSymmetricLink(id-1, id, 0)
	}
	return sim.New(1, nodes, net)
}

// TestSectionAllocBudget guards the scheduler's section path: once the
// chain is warm, further Sim.Run sections allocate nothing per section.
func TestSectionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	s := chainSim(t, true)
	if err := s.Run(sectionWarmCycles); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= sectionSteps; i++ {
		if err := s.Run(sectionWarmCycles + uint64(i)*sectionStepCycles); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	after := s.Stats()
	sections := after.ParallelSections - before.ParallelSections
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("12-node chain, %d cycles after warm-up: %d sections (%d staged medium events), %d allocs",
		sectionSteps*sectionStepCycles, sections, after.StagedEvents-before.StagedEvents, allocs)
	if sections < 100 {
		t.Fatalf("only %d sections in the window; the guard is not exercising the section path", sections)
	}
	if float64(allocs) > maxAllocsPerSection*float64(sections) {
		t.Errorf("sections allocate: %d allocs over %d sections (budget %.2f per section)",
			allocs, sections, maxAllocsPerSection)
	}
}

// Record allocation guard: the same 12-node chain with markers
// materialized, warmed for sectionWarmCycles and its traces taken, then
// recorded for recordCycles more and its traces taken again. The bytes
// allocated over that window, divided by the markers it recorded, cover
// each marker's staged record, its deltas and its flattened Marker and
// truth entry: about 140 B. A marker slice grown by append re-copies
// itself at every growth step and costs about 375 B, which the budget
// rejects.
const (
	recordCycles            = 20_000_000
	maxRecordBytesPerMarker = 220
)

// TestRecordAllocBudget guards the recorder's marker storage: recording a
// warm chain must allocate a bounded number of bytes per marker.
func TestRecordAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	s := chainSim(t, false)
	if err := s.Run(sectionWarmCycles); err != nil {
		t.Fatal(err)
	}
	markers := func(tr *trace.Trace) (n int) {
		for _, nt := range tr.Nodes {
			n += len(nt.Markers)
		}
		return n
	}
	before := markers(s.Trace())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := s.Run(sectionWarmCycles + recordCycles); err != nil {
		t.Fatal(err)
	}
	recorded := markers(s.Trace()) - before
	runtime.ReadMemStats(&m1)
	bytes := m1.TotalAlloc - m0.TotalAlloc
	perMarker := float64(bytes) / float64(recorded)
	t.Logf("12-node chain, %d cycles after warm-up: %d markers, %d bytes (%.1f B/marker)",
		recordCycles, recorded, bytes, perMarker)
	if recorded < 100_000 {
		t.Fatalf("only %d markers in the window; the guard is not exercising the recorder", recorded)
	}
	if perMarker > maxRecordBytesPerMarker {
		t.Errorf("recording allocates %.1f B/marker (budget %d)", perMarker, maxRecordBytesPerMarker)
	}
}

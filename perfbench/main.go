// Command perfbench is Sentomist's end-to-end benchmark. It runs one
// workload as a closed loop — each op starts when the previous one ends —
// for a fixed time, checks every op's output against its pinned digest,
// and prints every metric with its unit. The last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
//
// Build and run it from the repository root with the wrapper script:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced ops. --trace 1
// alternates untraced and traced ops, records spans around the calls into
// each layer, and reports the per-layer metrics and the tracing overhead.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	root         string
	work         string
	commit       string
	cpuProfile   string
	memProfile   string
	execTrace    string
	setupOnly    bool
	writeDigests bool
	// tiny shrinks the workload to self-test size and measures a single
	// set-up; only the self-tests set it.
	tiny bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: corpus, campaign, chain-record or chain-mine")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; inputs use it modulo 64, the pinned-digest table size")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the op loop measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for spill files and span dumps")
	fs.StringVar(&o.commit, "commit", "", "commit being measured (recorded in the report)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the op loop to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&o.execTrace, "exectrace", "", "write a runtime/trace execution trace of the op loop to this file")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "measure one set-up and print it (used for setup_s)")
	fs.BoolVar(&o.writeDigests, "write-digests", false, "run every input seed once and rewrite the workload's pinned digests in perfbench/digests.json")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// tally counts ops attempted and failed, warm-up ops included.
type tally struct{ attempted, failed int }

// check counts one op and reports whether it produced the expected output.
func (t *tally) check(want string, res *opResult, err error) bool {
	t.attempted++
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	case res.digest != want:
		fmt.Fprintf(os.Stderr, "perfbench: op output digest %s, want %s\n", res.digest, want)
	default:
		return true
	}
	t.failed++
	return false
}

func run(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	e := env{inputSeed: o.seed % pinSeeds, root: o.root, scratch: o.work, tiny: o.tiny}
	if o.writeDigests {
		return writeDigests(w, e, filepath.Join(o.root, "perfbench", "digests.json"))
	}
	if e.pins, err = loadPins(); err != nil {
		return err
	}
	var t tally
	start := time.Now()
	inst, want, err := setup(w, e, &t)
	setupS := []float64{time.Since(start).Seconds()}
	if err != nil {
		return err
	}
	defer inst.close()
	if o.setupOnly {
		return json.NewEncoder(stdout).Encode(childSetup{SetupS: setupS[0], Attempted: t.attempted, Failed: t.failed})
	}
	// setup_s is reported by untraced runs only, so only they measure
	// more set-ups. Short set-ups are repeated more often, so that every
	// workload's median rests on about the same amount of measured time.
	total := setupS[0]
	for o.trace == 0 && !o.tiny && (len(setupS) < minSetups || (total < setupBudgetS && len(setupS) < maxSetups)) {
		cs, err := setupInChild(o)
		if err != nil {
			return err
		}
		setupS = append(setupS, cs.SetupS)
		total += cs.SetupS
		t.attempted += cs.Attempted
		t.failed += cs.Failed
	}

	stop, err := startProfiles(o)
	if err != nil {
		return err
	}
	m, err := measure(o, inst, want, &t)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	return report(o, stdout, e, m, setupS, t)
}

// An untraced run measures at least minSetups set-ups for setup_s, and
// more, up to maxSetups, until they total setupBudgetS seconds.
const (
	minSetups    = 3
	maxSetups    = 9
	setupBudgetS = 3.0
)

// setup builds a workload instance and runs one warm-up op, which fills
// the assembly and predecode caches; its output is checked like any op's.
// It returns the digest every later op must reproduce.
func setup(w *workload, e env, t *tally) (instance, string, error) {
	inst, err := w.setup(e)
	if err != nil {
		return nil, "", err
	}
	want := inst.expected()
	res, err := inst.op(scope{})
	if want == "" && err == nil {
		want = res.digest
	}
	t.check(want, res, err)
	return inst, want, nil
}

// childSetup is what a --setup-only process prints.
type childSetup struct {
	SetupS    float64 `json:"setup_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

// setupInChild measures one cold set-up — empty assembly and predecode
// caches, fresh heap — in a new process of this binary.
func setupInChild(o options) (childSetup, error) {
	var cs childSetup
	exe, err := os.Executable()
	if err != nil {
		return cs, err
	}
	cmd := exec.Command(exe,
		"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--root", o.root, "--work", o.work, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return cs, fmt.Errorf("set-up process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cs); err != nil {
		return cs, fmt.Errorf("set-up process output: %w", err)
	}
	return cs, nil
}

func startProfiles(o options) (stop func() error, err error) {
	var stops []func() error
	stop = func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); first == nil {
				first = err
			}
		}
		return first
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if o.execTrace != "" {
		f, err := os.Create(o.execTrace)
		if err != nil {
			stop()
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() error { rtrace.Stop(); return f.Close() })
	}
	if o.memProfile != "" {
		stops = append(stops, func() error {
			f, err := os.Create(o.memProfile)
			if err != nil {
				return err
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	return stop, nil
}

// samples collects the per-op values of each metric.
type samples map[string][]float64

// measured is what the op loop observed.
type measured struct {
	e2e       samples // untraced ops
	layer     samples // traced ops
	untraced  []float64
	traced    []float64
	spansPath string
}

// measure runs ops in a closed loop until the time is up. With --trace 1
// every other op is traced.
func measure(o options, inst instance, want string, t *tally) (*measured, error) {
	m := &measured{e2e: samples{}, layer: samples{}}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || (o.trace == 1 && i < 2) || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 1
		// Start every op from the same heap state: collect, return freed
		// memory to the OS, and restart the peak-RSS counter.
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		rt0 := readRuntime()
		sc := scope{}
		var heap *heapSampler
		if traced {
			tr.mu.Lock()
			tr.op = i
			tr.mu.Unlock()
			sc = scope{tr: tr}
			heap = startHeapSampler()
		}
		start := time.Now()
		var res *opResult
		err := sc.call("bench.op", func(c scope) error {
			var err error
			res, err = inst.op(c)
			return err
		})
		end := time.Now()
		heapPeak := heap.stop()
		rt1 := readRuntime()
		peak := peakRSSBytes()
		if !t.check(want, res, err) {
			continue
		}
		wall := end.Sub(start).Seconds()
		if !traced {
			m.untraced = append(m.untraced, wall)
			e2eMetrics(m.e2e, res, start, end, rt1.allocBytes-rt0.allocBytes, peak)
			continue
		}
		m.traced = append(m.traced, wall)
		layerMetrics(m.layer, tr.opSpans(i), res, wall, rt0, rt1, heapPeak)
	}
	if tr != nil {
		m.spansPath = filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(m.spansPath); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// e2eMetrics adds one untraced op's end-to-end samples.
func e2eMetrics(s samples, res *opResult, start, end time.Time, alloc, peakRSS float64) {
	wall := end.Sub(start).Seconds()
	s["ranking_s"] = append(s["ranking_s"], wall)
	// One-shot workloads publish a single ranking at the end of the op,
	// so their first ranking is the op itself and so is the interval.
	first := wall
	gaps := []float64{wall}
	if len(res.published) > 1 {
		first = res.published[0].Sub(start).Seconds()
		gaps = gaps[:0]
		// The last entry is the final ranking; the gaps are between top-K
		// publications.
		for k := 1; k < len(res.published)-1; k++ {
			gaps = append(gaps, res.published[k].Sub(res.published[k-1]).Seconds())
		}
	}
	s["first_topk_s"] = append(s["first_topk_s"], first)
	s["topk_interval_s"] = append(s["topk_interval_s"], gaps...)
	var runs int
	var cycles, recSecs float64
	var lastEnd time.Time
	for _, r := range res.records {
		runs += r.runs
		cycles += r.nodeCycles
		recSecs += r.end.Sub(r.start).Seconds()
		if r.end.After(lastEnd) {
			lastEnd = r.end
		}
	}
	if runs > 0 {
		s["runs_per_s"] = append(s["runs_per_s"], float64(runs)/lastEnd.Sub(start).Seconds())
		s["sim_mcycles_per_s"] = append(s["sim_mcycles_per_s"], cycles/recSecs/1e6)
	}
	s["alloc_mb"] = append(s["alloc_mb"], alloc/1e6)
	s["peak_rss_mb"] = append(s["peak_rss_mb"], peakRSS/1e6)
}

// layerMetrics adds one traced op's per-layer samples.
func layerMetrics(s samples, spans []span, res *opResult, wall float64, rt0, rt1 runtimeSample, heapPeak float64) {
	c := res.counts
	put := func(name string, v float64) { s[name] = append(s[name], v) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	secs := func(name string) float64 { return nameTotal(spans, name).Seconds() }

	recordS := secs("sim.record")
	put("sim.record_s", recordS)
	put("sim.record_alloc_mb", c.get("sim.record_alloc_bytes")/1e6)
	put("sim.cycles", c.get("sim.cycles"))
	put("sim.markers", c.get("sim.markers"))
	put("sim.instructions", c.get("sim.instructions"))
	put("sim.ns_per_instr", ratio(recordS*1e9, c.get("sim.instructions")))
	put("medium.deliveries", c.get("medium.deliveries"))
	put("sim.rounds", c.get("sim.rounds"))
	put("sim.idle_jumps", c.get("sim.idle_jumps"))
	put("sim.solo_jumps", c.get("sim.solo_jumps"))
	put("sim.parallel_sections", c.get("sim.parallel_sections"))
	put("sim.section_width", ratio(c.get("sim.parallel_advances"), c.get("sim.parallel_sections")))
	put("sim.horizon_barriers", c.get("sim.horizon_barriers"))
	put("sim.staged_events", c.get("sim.staged_events"))
	put("sim.workers_parked", c.get("sim.workers_parked"))

	put("lifecycle.extract_s", secs("lifecycle.extract"))
	put("lifecycle.intervals", c.get("lifecycle.intervals"))
	put("lifecycle.excluded", c.get("lifecycle.excluded"))

	put("feature.counter_s", secs("feature.counter"))
	put("feature.scale_s", secs("feature.scale"))
	put("feature.dim", ratio(c.get("feature.dim"), c.get("core.mines")))
	put("feature.nnz_mean", ratio(c.get("feature.nnz"), c.get("feature.vectors")))

	put("svm.train_s", secs("svm.train"))
	put("svm.samples", c.get("svm.samples"))
	put("svm.distinct_frac", ratio(c.get("svm.distinct"), c.get("svm.samples")))
	put("svm.iters", c.get("svm.iters"))
	put("svm.sv", c.get("svm.sv"))
	put("svm.cache_hit_ratio", ratio(c.get("svm.cache_hits"), c.get("svm.cache_hits")+c.get("svm.cache_misses")))
	put("svm.alloc_mb", c.get("svm.alloc_bytes")/1e6)

	refits := c.get("core.refits")
	put("core.refits", refits)
	put("core.refit_iters", c.get("core.refit_iters"))
	put("core.warm_frac", ratio(c.get("core.warm"), refits))
	put("core.rebuilt_frac", ratio(c.get("core.rebuilt"), refits))
	put("core.delta_frac", ratio(c.get("core.delta"), refits))
	put("core.cache_hit_ratio", ratio(c.get("core.cache_hits"), c.get("core.cache_hits")+c.get("core.cache_misses")))
	put("core.refit_s", secs("core.refit"))
	put("core.finalize_s", secs("core.finalize"))

	put("trace.spill_mb", c.get("trace.spill_bytes")/1e6)
	put("trace.blocks_decoded", c.get("trace.blocks_decoded"))
	put("trace.blocks_skipped", c.get("trace.blocks_skipped"))
	put("trace.compactions", c.get("trace.compactions"))

	if workers := c.get("campaign.workers"); workers > 0 {
		for _, r := range res.records {
			put("campaign.run_s", r.end.Sub(r.start).Seconds())
		}
		put("campaign.busy_frac", ratio(recordS, workers*secs("campaign.mine")))
	} else {
		put("campaign.run_s", 0)
		put("campaign.busy_frac", 0)
	}

	self := layerSelf(spans)
	put("oracle.s", self["oracle"].Seconds())
	put("oracle.calls", c.get("oracle.calls"))
	put("oracle.alloc_mb", c.get("oracle.alloc_bytes")/1e6)

	put("runtime.gc_cycles", rt1.gcCycles-rt0.gcCycles)
	put("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	put("runtime.heap_peak_mb", heapPeak/1e6)

	put("mrr", c.get("mrr"))
	put("tracing.ranking_s", wall)

	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range shareLayers {
		put("share."+l, ratio(self[l].Seconds(), total.Seconds()))
	}
}

// shareLayers are the layers whose share of the traced op's self time is
// reported; "bench" is the benchmark's own glue and counting.
var shareLayers = []string{"sim", "lifecycle", "feature", "svm", "core", "campaign", "oracle", "bench"}

// heapSampler polls the live heap during a traced op to find its peak.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak float64
		for {
			peak = max(peak, readRuntime().heapBytes)
			select {
			case <-h.done:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak; 0 on a nil sampler.
func (h *heapSampler) stop() float64 {
	if h == nil {
		return 0
	}
	close(h.done)
	return <-h.peak
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func report(o options, stdout io.Writer, e env, m *measured, setupS []float64, t tally) error {
	defs, s := endToEnd, m.e2e
	if o.trace == 1 {
		defs, s = perLayer, m.layer
	} else {
		s["setup_s"] = setupS
	}
	full := map[string]summary{}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		var sum summary
		switch d.name {
		case "failed_frac":
			sum = summary{Value: float64(t.failed) / float64(t.attempted), Unit: d.unit, N: t.attempted}
		case "tracing.overhead_s":
			sum = summary{Value: median(m.traced) - median(m.untraced), Unit: d.unit, N: len(m.traced) + len(m.untraced)}
		default:
			if len(s[d.name]) == 0 {
				return fmt.Errorf("%s: no samples of %s (every op failed?)", o.workload, d.name)
			}
			sum = summarize(s[d.name], d.unit)
		}
		full[d.name] = sum
		res.Metrics[d.name] = metric{Value: sum.Value, Unit: sum.Unit}
		line := fmt.Sprintf("%-24s %14.6g %-10s n=%d", d.name, sum.Value, sum.Unit, sum.N)
		if sum.TailP > 0 {
			line += fmt.Sprintf("  p%g=%.6g", sum.TailP, sum.TailVal)
		}
		fmt.Fprintln(stdout, line)
	}
	prov := collectProvenance(o.root, o.commit, o.seed, e.inputSeed)
	detail := map[string]any{
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"provenance": prov,
		"metrics":    full,
	}
	if m.spansPath != "" {
		detail["spans"] = m.spansPath
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": detail}); err != nil {
		return err
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed their output check\n", t.failed, t.attempted)
	}
	return enc.Encode(res)
}

// metricDef names a metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ranking_s", "s", "lower"},
	{"first_topk_s", "s", "lower"},
	{"topk_interval_s", "s", "lower"},
	{"runs_per_s", "runs/s", "higher"},
	{"sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.record_s", "s", "lower"},
		{"sim.record_alloc_mb", "MB", "lower"},
		{"sim.cycles", "cycles", "higher"},
		{"sim.markers", "count", "lower"},
		{"sim.instructions", "count", "higher"},
		{"sim.ns_per_instr", "ns", "lower"},
		{"medium.deliveries", "count", "higher"},
		{"sim.rounds", "count", "lower"},
		{"sim.idle_jumps", "count", "higher"},
		{"sim.solo_jumps", "count", "higher"},
		{"sim.parallel_sections", "count", "higher"},
		{"sim.section_width", "count", "higher"},
		{"sim.horizon_barriers", "count", "lower"},
		{"sim.staged_events", "count", "lower"},
		{"sim.workers_parked", "count", "lower"},
		{"lifecycle.extract_s", "s", "lower"},
		{"lifecycle.intervals", "count", "higher"},
		{"lifecycle.excluded", "count", "lower"},
		{"feature.counter_s", "s", "lower"},
		{"feature.scale_s", "s", "lower"},
		{"feature.dim", "count", "lower"},
		{"feature.nnz_mean", "count", "lower"},
		{"svm.train_s", "s", "lower"},
		{"svm.samples", "count", "higher"},
		{"svm.distinct_frac", "ratio", "lower"},
		{"svm.iters", "count", "lower"},
		{"svm.sv", "count", "lower"},
		{"svm.cache_hit_ratio", "ratio", "higher"},
		{"svm.alloc_mb", "MB", "lower"},
		{"core.refits", "count", "higher"},
		{"core.refit_iters", "count", "lower"},
		{"core.warm_frac", "ratio", "higher"},
		{"core.rebuilt_frac", "ratio", "lower"},
		{"core.delta_frac", "ratio", "higher"},
		{"core.cache_hit_ratio", "ratio", "higher"},
		{"core.refit_s", "s", "lower"},
		{"core.finalize_s", "s", "lower"},
		{"trace.spill_mb", "MB", "lower"},
		{"trace.blocks_decoded", "count", "lower"},
		{"trace.blocks_skipped", "count", "higher"},
		{"trace.compactions", "count", "lower"},
		{"campaign.run_s", "s", "lower"},
		{"campaign.busy_frac", "ratio", "higher"},
		{"oracle.s", "s", "lower"},
		{"oracle.calls", "count", "lower"},
		{"oracle.alloc_mb", "MB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.heap_peak_mb", "MB", "lower"},
		{"mrr", "ratio", "higher"},
		{"failed_frac", "ratio", "lower"},
		{"tracing.ranking_s", "s", "lower"},
		{"tracing.overhead_s", "s", "lower"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"share." + l, "ratio", "lower"})
	}
	return defs
}()

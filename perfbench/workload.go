package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sentomist/internal/apps"
)

// env is what a workload's set-up needs from the driver.
type env struct {
	// inputSeed is the seed argument modulo pinSeeds.
	inputSeed uint64
	// root is the repository root (BENCH_QUALITY.json lives there).
	root string
	// scratch is a directory the driver owns for the run's temp files.
	scratch string
	// pins holds the expected digests; nil when writing them.
	pins pinTable
	// tiny shrinks every workload to self-test size; its ops are then
	// checked for determinism instead of against the pins.
	tiny bool
}

// want returns the pinned digest for a workload at env's input seed: ""
// at self-test size or while writing pins (the driver then checks every
// op against the warm-up op's digest instead).
func (e env) want(workload string) (string, error) {
	if e.tiny || e.pins == nil {
		return "", nil
	}
	d, ok := e.pins.pinned(workload, e.inputSeed)
	if !ok {
		return "", fmt.Errorf("%s: no pinned digest for input seed %d", workload, e.inputSeed)
	}
	return d, nil
}

// nproc is the worker budget of every workload: campaign workers and
// node-section workers never exceed the host's CPU count.
func nproc() int { return runtime.NumCPU() }

// workload is one benchmark input set: set-up builds an instance whose
// ops the driver runs in a closed loop.
type workload struct {
	name  string
	setup func(env) (instance, error)
}

type instance interface {
	// op runs one operation from its inputs to its final ranking or
	// report. Calls into the layers are timed under sc.
	op(sc scope) (*opResult, error)
	// expected is the digest every op must reproduce ("" = the first
	// op's).
	expected() string
	close()
}

var workloads = []*workload{
	{name: "corpus", setup: setupCorpus},
	{name: "campaign", setup: setupCampaign},
	{name: "chain-record", setup: setupChainRecord},
	{name: "chain-mine", setup: setupChainMine},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// record is one call into the emulator: when it ran, how many testing
// runs it produced and how many node-cycles they simulated.
type record struct {
	start, end time.Time
	runs       int
	nodeCycles float64
}

// opResult is what one op produced and what it observed along the way.
type opResult struct {
	digest string
	counts *counters

	mu        sync.Mutex
	published []time.Time // each ranking the op published, in order
	records   []record
}

func newOpResult() *opResult { return &opResult{counts: newCounters()} }

func (r *opResult) publish(at time.Time) {
	r.mu.Lock()
	r.published = append(r.published, at)
	r.mu.Unlock()
}

// addRecord notes one record call and, when traced, the emulator's own
// counters for the runs it produced.
func (r *opResult) addRecord(start, end time.Time, runs []*apps.Run, traced bool) {
	rec := record{start: start, end: end, runs: len(runs)}
	for _, run := range runs {
		if run.Trace != nil {
			rec.nodeCycles += float64(run.Trace.Cycles) * float64(len(run.Trace.Nodes))
		}
	}
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
	if traced {
		simCounts(r.counts, runs)
	}
}

// recordCall runs one call into the emulator under a sim.record span.
func (r *opResult) recordCall(sc scope, fn func() ([]*apps.Run, error)) ([]*apps.Run, error) {
	var runs []*apps.Run
	var start, end time.Time
	err := sc.call("sim.record", func(scope) error {
		var a0 float64
		if sc.traced() {
			a0 = allocBytes()
		}
		start = time.Now()
		var err error
		runs, err = fn()
		end = time.Now()
		if sc.traced() {
			r.counts.add("sim.record_alloc_bytes", allocBytes()-a0)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Counting walks every marker; keep it out of the record span.
	err = sc.call("bench.count", func(scope) error {
		r.addRecord(start, end, runs, sc.traced())
		return nil
	})
	return runs, err
}

// simCounts adds the emulator's counters of finished runs.
func simCounts(c *counters, runs []*apps.Run) {
	for _, run := range runs {
		st := run.Stats
		c.add("sim.rounds", float64(st.Rounds))
		c.add("sim.idle_jumps", float64(st.IdleJumps))
		c.add("sim.solo_jumps", float64(st.SoloJumps))
		c.add("sim.parallel_sections", float64(st.ParallelSections))
		c.add("sim.parallel_advances", float64(st.ParallelAdvances))
		c.add("sim.horizon_barriers", float64(st.HorizonBarriers))
		c.add("sim.staged_events", float64(st.StagedEvents))
		c.add("sim.workers_parked", float64(st.WorkersParked))
		if run.Net != nil {
			c.add("medium.deliveries", float64(len(run.Net.Deliveries())))
		}
		if run.Trace == nil {
			continue
		}
		c.add("sim.cycles", float64(run.Trace.Cycles)*float64(len(run.Trace.Nodes)))
		var markers, instrs float64
		for _, nt := range run.Trace.Nodes {
			markers += float64(len(nt.Markers))
			for _, m := range nt.Markers {
				for _, d := range m.Deltas {
					instrs += float64(d.Count)
				}
			}
		}
		c.add("sim.markers", markers)
		c.add("sim.instructions", instrs)
	}
}

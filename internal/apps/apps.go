// Package apps contains the paper's three case-study applications, written
// in SVM-8 assembly and executed on the simulated substrate:
//
//   - Case I  (oscilloscope):  single-hop data collection with the Figure-2
//     data-pollution race in its ADC event procedure.
//   - Case II (forwarder):     multi-hop forwarding that actively drops a
//     received packet when the MAC busy flag is set.
//   - Case III (ctpheartbeat): CTP-style collection plus a heartbeat
//     protocol; an unhandled send-FAIL wedges the collection path.
//
// Each case has a buggy variant (the paper's subject) and a fixed variant
// (used to check that the mined symptom disappears). Each also provides a
// symptom oracle — a ground-truth predicate over intervals — so experiments
// can verify that top-ranked intervals really contain the bug.
package apps

import (
	"fmt"
	"sync"

	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/medium"
	"sentomist/internal/node"
	"sentomist/internal/randx"
	"sentomist/internal/sim"
	"sentomist/internal/trace"
)

// CyclesPerSecond is the virtual clock rate: 1 MHz, one cycle per µs.
const CyclesPerSecond = 1_000_000

// prelude defines the port and IRQ names shared by all application sources.
const prelude = `
; ---- SVM-8 hardware map (see internal/dev) ----
.equ T0_CTRL, 0x10
.equ T0_LO,   0x11
.equ T0_HI,   0x12
.equ T0_PRE,  0x13
.equ T1_CTRL, 0x14
.equ T1_LO,   0x15
.equ T1_HI,   0x16
.equ T1_PRE,  0x17
.equ ADC_CTRL, 0x20
.equ ADC_DATA, 0x21
.equ TX_DST,  0x30
.equ TX_FIFO, 0x31
.equ TX_CMD,  0x32
.equ STATUS,  0x33
.equ TX_STAT, 0x34
.equ RX_LEN,  0x35
.equ RX_FIFO, 0x36
.equ RX_SRC,  0x37
.equ LED,     0x40
.equ CMD_CLEAR, 0
.equ CMD_SEND,  1
.equ ST_BUSY,   1
.equ ST_REJ,    2
.equ BCAST,   255
`

// Run bundles everything a finished simulation exposes to experiments.
type Run struct {
	Trace    *trace.Trace
	Programs map[int]*isa.Program
	Vars     map[int]map[string]uint16 // per node: .var name -> RAM address
	Net      *medium.Network
	Nodes    map[int]*node.Node
	// Stats holds the scheduler's per-run counters (rounds, jumps,
	// sections); see sim.Stats.
	Stats sim.Stats

	// firstPC memoizes FirstMarkerWithPC answers per (node, pc) for the
	// hang oracles; see oracle.go.
	firstPCMu sync.Mutex
	firstPC   map[firstPCKey]int
}

// Program returns the binary node id runs.
func (r *Run) Program(id int) *isa.Program { return r.Programs[id] }

// Release recycles the run's big allocations — every node recorder's
// dense counter scratch plus, when markers were materialized, the trace's
// marker and delta storage — into the trace package's pools. The Trace and
// all views into it are invalid afterwards; call it only when the run is
// fully consumed (campaign workers do, once the streamed intervals are
// finalized).
func (r *Run) Release() {
	for _, n := range r.Nodes {
		n.Release()
	}
	if r.Trace != nil {
		r.Trace.Release()
	}
}

// RAM reads a named .var of a node after the run (application-level state,
// e.g. drop counters).
func (r *Run) RAM(id int, varName string) (uint8, error) {
	addr, ok := r.Vars[id][varName]
	if !ok {
		return 0, fmt.Errorf("apps: node %d has no var %q", id, varName)
	}
	return r.Nodes[id].CPU().RAM[addr], nil
}

// LabelPC returns the code address of a label in prog.
func LabelPC(prog *isa.Program, label string) (uint16, error) {
	for addr, names := range prog.Symbols {
		for _, n := range names {
			if n == label {
				return addr, nil
			}
		}
	}
	return 0, fmt.Errorf("apps: label %q not found", label)
}

// builder accumulates the nodes of one scenario run.
type builder struct {
	seed  uint64
	rng   *randx.RNG
	net   *medium.Network
	nodes []*node.Node
	run   *Run
	// reference runs the scenario on the single-step reference engine
	// (node SingleStep + sim reference scheduler) instead of the batched
	// event-horizon engine; used by differential tests.
	reference bool
}

// RNG-split keys of the builder's derived streams. The network's stream is
// split first (in newBuilder), each node's sensor stream on ADC attach;
// SensorReadings replays the same order to reproduce a sensor's readings
// without re-running the simulation.
const (
	netSplitKey    = 0xa11
	sensorSplitKey = 0x5e45
)

func newBuilder(seed uint64) *builder {
	rng := randx.New(seed)
	return &builder{
		seed: seed,
		rng:  rng,
		net:  medium.NewNetwork(rng.Split(netSplitKey)),
		run: &Run{
			Programs: make(map[int]*isa.Program),
			Vars:     make(map[int]map[string]uint16),
			Nodes:    make(map[int]*node.Node),
		},
	}
}

// nodeOpts selects which devices a node gets.
type nodeOpts struct {
	adc     bool
	timer0  bool
	timer1  bool
	radio   bool
	ramInit map[uint16]uint8
	// fuzzIRQs, when non-empty, attaches a random-interrupt fuzzer
	// raising these IRQs with gaps in [fuzzMin, fuzzMax] cycles.
	fuzzIRQs []int
	fuzzMin  uint64
	fuzzMax  uint64
	// sequential selects the TOSSIM-like no-preemption node mode.
	sequential bool
	// sink streams the node's lifecycle markers to an online consumer;
	// discard additionally drops them from the materialized trace (the
	// streaming pipeline's memory-light mode).
	sink    trace.StreamSink
	discard bool
}

// addNode assembles src (if not pre-assembled) and builds a node with the
// requested devices wired to the shared network.
func (b *builder) addNode(id int, prog *asm.Result, o nodeOpts) (*node.Node, error) {
	n, err := node.New(node.Config{
		ID:             id,
		Program:        prog.Program,
		RAMInit:        o.ramInit,
		Truth:          true,
		Sequential:     o.sequential,
		Sink:           o.sink,
		DiscardMarkers: o.discard,
	})
	if err != nil {
		return nil, err
	}
	if o.timer0 {
		n.Attach(dev.NewTimer(dev.IRQTimer0, n,
			dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale))
	}
	if o.timer1 {
		n.Attach(dev.NewTimer(dev.IRQTimer1, n,
			dev.PortT1Ctrl, dev.PortT1PeriodLo, dev.PortT1PeriodHi, dev.PortT1Prescale))
	}
	if o.adc {
		n.Attach(dev.NewADC(n, nodeSensor(b.rng, id)))
	}
	if o.radio {
		radio := dev.NewRadio(n)
		mac := b.net.NewMAC(id)
		radio.SetTransceiver(mac)
		mac.SetClient(radio)
		n.Attach(radio)
	}
	if len(o.fuzzIRQs) > 0 {
		minGap, maxGap := o.fuzzMin, o.fuzzMax
		if minGap == 0 {
			minGap = 200
		}
		if maxGap < minGap {
			maxGap = minGap * 20
		}
		n.Attach(dev.NewFuzzer(n, b.rng.Split(uint64(id)+0xf022), o.fuzzIRQs, minGap, maxGap))
	}
	b.nodes = append(b.nodes, n)
	b.run.Nodes[id] = n
	b.run.Programs[id] = prog.Program
	b.run.Vars[id] = prog.Vars
	return n, nil
}

// execute runs the scenario for the given number of seconds and collects
// the trace.
func (b *builder) execute(seconds float64) (*Run, error) {
	for _, n := range b.nodes {
		n.SetSingleStep(b.reference)
	}
	s := sim.NewWithConfig(sim.Config{Seed: b.seed, Reference: b.reference}, b.nodes, b.net)
	cycles := uint64(seconds * CyclesPerSecond)
	if err := s.Run(cycles); err != nil {
		return nil, err
	}
	b.run.Trace = s.Trace()
	b.run.Net = b.net
	b.run.Stats = s.Stats()
	return b.run, nil
}

// IntervalHasPC reports whether the interval's window executed the
// instruction at pc at least once — the ground-truth oracle for symptoms
// that correspond to a distinguished code path (Case II's active drop,
// Case III's unhandled FAIL).
func IntervalHasPC(nt *trace.NodeTrace, iv lifecycle.Interval, pc uint16) bool {
	for m := iv.StartMarker + 1; m <= iv.EndMarker && m < len(nt.Markers); m++ {
		for _, d := range nt.Markers[m].Deltas {
			if d.PC == pc && d.Count > 0 {
				return true
			}
		}
	}
	return false
}

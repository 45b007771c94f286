// Package synth generates randomized multi-node scenarios — random
// topologies, random timer periods, randomly wired task chains, optional
// preemptible handlers, interrupt fuzzing, and radio beacons. It exists to
// soak-test the substrate and the analyzer far beyond the hand-written
// case studies: every generated workload still has to satisfy the
// ground-truth interval property.
package synth

import (
	"fmt"
	"strings"

	"sentomist/internal/apps"
	"sentomist/internal/dev"
	"sentomist/internal/randx"
)

// Config bounds scenario generation.
type Config struct {
	// Seed drives both generation and the run itself.
	Seed uint64
	// MaxNodes caps the node count (min 1; default 4).
	MaxNodes int
	// ExactNodes, when positive, pins the node count (for scalability
	// measurements); it overrides MaxNodes.
	ExactNodes int
	// Seconds is the simulated run length (default 0.5).
	Seconds float64
}

// Generate builds and executes a random scenario, returning the finished
// run. Programs are generated so that every posted task terminates (tasks
// only post strictly higher-numbered tasks) and stacks stay bounded.
func Generate(cfg Config) (*apps.Run, error) {
	seconds := cfg.Seconds
	if seconds <= 0 {
		seconds = 0.5
	}
	s, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(seconds)
}

// Build constructs Generate's random scenario without running it, so a
// caller can re-record the same scenario on another engine (see
// apps.Scenario.SetReference). Generate runs it for Seconds, or 0.5 when
// unset.
func Build(cfg Config) (*apps.Scenario, error) {
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 4
	}
	rng := randx.New(cfg.Seed ^ 0x5e17)
	nNodes := 1 + rng.Intn(maxNodes)
	if cfg.ExactNodes > 0 {
		nNodes = cfg.ExactNodes
	}

	s := apps.NewScenario(cfg.Seed)
	withRadio := nNodes > 1 && rng.Bool(0.7)
	for id := 0; id < nNodes; id++ {
		g := &progGen{rng: rng.Split(uint64(id) + 17), radio: withRadio, nodeID: id, nNodes: nNodes}
		spec := apps.NodeSpec{
			ID:     id,
			Source: g.source(),
			Timer0: true,
			Timer1: g.useTimer1,
			Radio:  withRadio,
		}
		if g.useFuzzer {
			spec.FuzzIRQs = []int{dev.IRQTimer1}
			spec.FuzzMinGap = 300
			spec.FuzzMaxGap = 9000
		}
		if err := s.AddNode(spec); err != nil {
			return nil, fmt.Errorf("synth: node %d: %w", id, err)
		}
	}
	if withRadio {
		// Random connected topology: a chain plus random extra links.
		for id := 1; id < nNodes; id++ {
			s.Link(id-1, id, rng.Float64()*0.1)
		}
		for i := 0; i < nNodes; i++ {
			for j := i + 2; j < nNodes; j++ {
				if rng.Bool(0.3) {
					s.Link(i, j, rng.Float64()*0.1)
				}
			}
		}
	}
	return s, nil
}

// progGen emits one random program.
type progGen struct {
	rng    *randx.RNG
	radio  bool
	nodeID int
	nNodes int

	useTimer1 bool
	useFuzzer bool
	nTasks    int
}

func (g *progGen) source() string {
	g.nTasks = 1 + g.rng.Intn(4)
	// Timer1 is either a second periodic source or the fuzzer's IRQ,
	// never both.
	g.useFuzzer = g.rng.Bool(0.4)
	g.useTimer1 = !g.useFuzzer && g.rng.Bool(0.6)

	var b strings.Builder
	b.WriteString(".var acc\n.var beats\n")
	b.WriteString(".vector 1, isr_a\n")
	if g.useTimer1 || g.useFuzzer {
		b.WriteString(".vector 2, isr_b\n")
	}
	if g.radio {
		b.WriteString(".vector 4, isr_rx\n.vector 5, isr_txdone\n")
	}
	for i := 0; i < g.nTasks; i++ {
		fmt.Fprintf(&b, ".task %d, task%d\n", i, i)
	}
	b.WriteString(".entry boot\n\nboot:\n")
	p0 := 1500 + g.rng.Intn(9000)
	fmt.Fprintf(&b, "\tldi r0, %d\n\tout T0_LO, r0\n\tldi r0, %d\n\tout T0_HI, r0\n", p0&0xff, p0>>8)
	if g.useTimer1 {
		p1 := 2000 + g.rng.Intn(11000)
		fmt.Fprintf(&b, "\tldi r0, %d\n\tout T1_LO, r0\n\tldi r0, %d\n\tout T1_HI, r0\n", p1&0xff, p1>>8)
		b.WriteString("\tldi r0, 1\n\tout T1_CTRL, r0\n")
	}
	b.WriteString("\tldi r0, 1\n\tout T0_CTRL, r0\n\tsei\n\tosrun\n\n")

	// Handler A: posts 0..2 random tasks; sometimes preemptible with a
	// linger window so nesting actually occurs.
	b.WriteString("isr_a:\n")
	if g.rng.Bool(0.4) {
		b.WriteString("\tsei\n\tpush r0\n")
		fmt.Fprintf(&b, "\tldi r0, %d\nia_spin:\n\tdec r0\n\tbrne ia_spin\n\tpop r0\n", 20+g.rng.Intn(60))
	}
	for i, n := 0, g.rng.Intn(3); i < n; i++ {
		fmt.Fprintf(&b, "\tpost %d\n", g.rng.Intn(g.nTasks))
	}
	b.WriteString("\treti\n\n")

	if g.useTimer1 || g.useFuzzer {
		b.WriteString("isr_b:\n\tpush r0\n\tlds r0, beats\n\tinc r0\n\tsts beats, r0\n\tpop r0\n")
		if g.rng.Bool(0.5) {
			fmt.Fprintf(&b, "\tpost %d\n", g.rng.Intn(g.nTasks))
		}
		b.WriteString("\treti\n\n")
	}
	if g.radio {
		b.WriteString(`isr_rx:
	push r0
	push r1
rxd:
	in  r1, RX_LEN
	cpi r1, 0
	breq rxe
	in  r1, RX_FIFO
	jmp rxd
rxe:
	pop r1
	pop r0
	reti

isr_txdone:
	reti

`)
	}

	for i := 0; i < g.nTasks; i++ {
		fmt.Fprintf(&b, "task%d:\n\tpush r0\n", i)
		// Random work.
		if spin := g.rng.Intn(120); spin > 4 {
			fmt.Fprintf(&b, "\tldi r0, %d\nt%d_spin:\n\tdec r0\n\tbrne t%d_spin\n", spin, i, i)
		}
		b.WriteString("\tlds r0, acc\n\tinc r0\n\tsts acc, r0\n")
		// Post only strictly higher tasks: chains always terminate.
		for j := i + 1; j < g.nTasks; j++ {
			if g.rng.Bool(0.35) {
				fmt.Fprintf(&b, "\tpost %d\n", j)
			}
		}
		// Occasionally beacon over the radio.
		if g.radio && i == 0 && g.rng.Bool(0.5) {
			b.WriteString(`	push r1
	in  r1, STATUS
	andi r1, ST_BUSY
	brne nosend` + "\n")
			b.WriteString("\tldi r1, BCAST\n\tout TX_DST, r1\n\tlds r1, acc\n\tout TX_FIFO, r1\n\tldi r1, CMD_SEND\n\tout TX_CMD, r1\nnosend:\n\tpop r1\n")
		}
		b.WriteString("\tpop r0\n\tret\n\n")
	}
	return b.String()
}

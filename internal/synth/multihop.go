package synth

import (
	"fmt"
	"strings"

	"sentomist/internal/apps"
)

// MultihopConfig parameterizes the deterministic multi-hop benchmark
// scenario: a chain of compute-heavy nodes forwarding traffic hop by hop.
// Unlike Generate, every constant derives from the node ID alone, so the
// workload is identical across runs — the scenario is the section
// scheduler's benchmark and differential-test subject.
type MultihopConfig struct {
	// Nodes is the chain length (default 12, min 2).
	Nodes int
	// Seconds is the simulated run length (default 2).
	Seconds float64
	// Seed is recorded in the trace; the workload itself is deterministic.
	Seed uint64
	// NodeWorkers is ignored: the scheduler advances a section's nodes on
	// one goroutine. It is kept only because the end-to-end benchmark
	// (perfbench/chain.go) still sets it.
	NodeWorkers int
}

// BuildMultihop constructs the benchmark scenario without running it.
func BuildMultihop(cfg MultihopConfig) (*apps.Scenario, error) {
	n := cfg.Nodes
	if n <= 0 {
		n = 12
	}
	if n < 2 {
		n = 2
	}
	s := apps.NewScenario(cfg.Seed)
	for id := 0; id < n; id++ {
		next := id + 1
		if next >= n {
			next = -1 // chain sink
		}
		if err := s.AddNode(apps.NodeSpec{
			ID:     id,
			Source: multihopSource(id, next),
			Timer0: true,
			Radio:  true,
		}); err != nil {
			return nil, fmt.Errorf("synth: multihop node %d: %w", id, err)
		}
	}
	for id := 1; id < n; id++ {
		s.Link(id-1, id, 0)
	}
	return s, nil
}

// Multihop builds and executes the benchmark scenario.
func Multihop(cfg MultihopConfig) (*apps.Run, error) {
	seconds := cfg.Seconds
	if seconds <= 0 {
		seconds = 2
	}
	s, err := BuildMultihop(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(seconds)
}

// multihopSource emits one chain node's program. Each node runs a periodic
// compute task at ~75% duty cycle (the parallelizable bulk), originates a
// unicast packet to its downstream neighbour once every 128 periods, and
// forwards every fourth received byte one hop further — so packets travel
// several hops while the medium stays mostly quiet. next < 0 marks the
// sink, which only counts arrivals.
func multihopSource(id, next int) string {
	var b strings.Builder
	b.WriteString(".var acc\n.var cnt\n.var relay\n.var rxn\n")
	b.WriteString(".vector 1, isr_t0\n.vector 4, isr_rx\n.vector 5, isr_txdone\n")
	b.WriteString(".task 0, work\n.task 1, forward\n")
	b.WriteString(".entry boot\n\nboot:\n")
	// Staggered periods keep the chain's compute phases from aligning.
	period := 2880 + 48*id
	fmt.Fprintf(&b, "\tldi r0, %d\n\tout T0_LO, r0\n\tldi r0, %d\n\tout T0_HI, r0\n",
		period&0xff, period>>8)
	b.WriteString("\tldi r0, 1\n\tout T0_CTRL, r0\n\tsei\n\tosrun\n\n")

	b.WriteString("isr_t0:\n\tpost 0\n\treti\n\n")

	b.WriteString(`isr_rx:
	push r0
	push r1
rx_d:
	in  r1, RX_LEN
	cpi r1, 0
	breq rx_e
	in  r1, RX_FIFO
	sts relay, r1
	lds r0, rxn
	inc r0
	sts rxn, r0
`)
	if next >= 0 {
		// Forward every fourth byte: traffic thins geometrically down the
		// chain but still exercises genuine multi-hop delivery.
		b.WriteString("\tandi r0, 3\n\tbrne rx_d\n\tpost 1\n")
	}
	b.WriteString("\tjmp rx_d\nrx_e:\n\tpop r1\n\tpop r0\n\treti\n\nisr_txdone:\n\treti\n\n")

	// work: ~2100 cycles of spinning per period (the parallel payload),
	// then the occasional origination toward the downstream neighbour.
	b.WriteString(`work:
	push r0
	push r1
	ldi r1, 8
w_outer:
	ldi r0, 130
w_inner:
	dec r0
	brne w_inner
	dec r1
	brne w_outer
	lds r0, acc
	inc r0
	sts acc, r0
	lds r0, cnt
	inc r0
	sts cnt, r0
`)
	if next >= 0 {
		phase := (id*11 + 3) & 0x7f
		fmt.Fprintf(&b, "\tandi r0, 127\n\tcpi r0, %d\n\tbrne w_done\n", phase)
		b.WriteString(`	in  r0, STATUS
	andi r0, ST_BUSY
	brne w_done
`)
		fmt.Fprintf(&b, "\tldi r0, %d\n\tout TX_DST, r0\n", next)
		b.WriteString("\tlds r0, cnt\n\tout TX_FIFO, r0\n\tldi r0, CMD_SEND\n\tout TX_CMD, r0\n")
	}
	b.WriteString("w_done:\n\tpop r1\n\tpop r0\n\tret\n\n")

	b.WriteString("forward:\n\tpush r0\n")
	if next >= 0 {
		b.WriteString(`	in  r0, STATUS
	andi r0, ST_BUSY
	brne f_done
`)
		fmt.Fprintf(&b, "\tldi r0, %d\n\tout TX_DST, r0\n", next)
		b.WriteString("\tlds r0, relay\n\tout TX_FIFO, r0\n\tldi r0, CMD_SEND\n\tout TX_CMD, r0\n")
	} else {
		b.WriteString("\tlds r0, acc\n\tinc r0\n\tsts acc, r0\n")
	}
	b.WriteString("f_done:\n\tpop r0\n\tret\n")
	return b.String()
}

package trace_test

import (
	"bytes"
	"sort"
	"testing"

	"sentomist/internal/core"
	"sentomist/internal/trace"
)

// FuzzReadBinary and FuzzReadJSON throw mutated trace files at the two
// decoders and then at the miner. Whatever the bytes claim, a decoder must
// return a clean error or a trace that passes Validate, and mining an
// accepted trace must return a ranking or an error — never panic, and never
// size memory by a declared length rather than by what the file holds. The
// seed corpora in testdata/fuzz are small real traces written by
// cmd/tracegen, plus the oversized-ProgramLen JSON pinned by
// TestReadJSONRejectsOversizedProgram.
func FuzzReadBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		mineAccepted(t, tr)
	})
}

func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		mineAccepted(t, tr)
	})
}

// mineAccepted re-validates a decoded trace and mines it for every event
// type its Int markers name. Mining errors (no complete intervals, too few
// samples) are legitimate outcomes for arbitrary input; panics are not.
func mineAccepted(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("decoder accepted a trace that fails Validate: %v", err)
	}
	seen := map[int]bool{}
	for _, nt := range tr.Nodes {
		for _, m := range nt.Markers {
			if m.Kind == trace.Int {
				seen[m.Arg] = true
			}
		}
	}
	irqs := make([]int, 0, len(seen))
	for irq := range seen {
		irqs = append(irqs, irq)
	}
	sort.Ints(irqs)
	for _, irq := range irqs {
		core.Mine([]core.RunInput{{Trace: tr}}, core.Config{IRQ: irq, Parallelism: 1})
	}
}

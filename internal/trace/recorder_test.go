package trace

import (
	"reflect"
	"testing"

	"sentomist/internal/randx"
)

// refRecorder is the append-based recorder the staged one replaced, kept as
// the oracle for TestRecorderMatchesAppendOracle: every Mark appends a
// Marker (and a truth entry) directly to the node trace.
type refRecorder struct {
	nt      NodeTrace
	counts  []uint32
	touched []uint16
	truth   bool
	minSP   uint16
	arena   []Delta
}

func newRefRecorder(nodeID, programLen int, truth bool) *refRecorder {
	return &refRecorder{
		nt:     NodeTrace{NodeID: nodeID, ProgramLen: programLen},
		counts: make([]uint32, programLen),
		truth:  truth,
		minSP:  0xffff,
	}
}

func (r *refRecorder) CountPC(pc uint16) {
	if r.counts[pc] == 0 {
		r.touched = append(r.touched, pc)
	}
	r.counts[pc]++
}

func (r *refRecorder) ObserveSP(sp uint16) { r.minSP = min(r.minSP, sp) }

func (r *refRecorder) Mark(kind Kind, arg int, cycle uint64, instance int) {
	var deltas []Delta
	if n := len(r.touched); n > 0 {
		if len(r.arena)+n > cap(r.arena) {
			r.arena = make([]Delta, 0, max(n, arenaChunk))
		}
		start := len(r.arena)
		for _, pc := range r.touched {
			r.arena = append(r.arena, Delta{PC: pc, Count: r.counts[pc]})
			r.counts[pc] = 0
		}
		deltas = r.arena[start:len(r.arena):len(r.arena)]
		r.touched = r.touched[:0]
	}
	r.nt.Markers = append(r.nt.Markers, Marker{
		Kind: kind, Arg: arg, Cycle: cycle, Deltas: deltas, MinSP: r.minSP,
	})
	r.minSP = 0xffff
	if r.truth {
		r.nt.TruthInstance = append(r.nt.TruthInstance, instance)
	}
}

// markScript drives a Recorder and the oracle through the same random
// sequence of counts, stack samples, and marks.
type markScript struct {
	rng        *randx.RNG
	programLen int
	cycle      uint64
	// wide is the chance a marker's delta touches every PC, which with a
	// program longer than arenaChunk forces an oversized arena.
	wide float64
}

func (s *markScript) step(r *Recorder, ref *refRecorder) {
	switch {
	case s.rng.Bool(s.wide):
		for pc := range s.programLen {
			r.CountPC(uint16(pc))
			ref.CountPC(uint16(pc))
		}
	case s.rng.Bool(0.2): // an empty delta
	default:
		pcs := make([]uint16, 1+s.rng.Intn(12))
		for i := range pcs {
			pcs[i] = uint16(s.rng.Intn(s.programLen))
		}
		r.CountPCs(pcs)
		for _, pc := range pcs {
			ref.CountPC(pc)
		}
	}
	if s.rng.Bool(0.5) {
		sp := uint16(s.rng.Intn(0x1000))
		r.ObserveSP(sp)
		ref.ObserveSP(sp)
	}
	s.cycle += uint64(s.rng.Intn(1000))
	kind := Kind(1 + s.rng.Intn(int(TaskEnd)))
	arg := s.rng.Intn(1 << 16)
	inst := s.rng.Intn(1<<31) - 1<<30
	r.Mark(kind, arg, s.cycle, inst)
	ref.Mark(kind, arg, s.cycle, inst)
}

// assertSameTrace compares a recorder's node trace with the oracle's:
// markers (MinSP included), delta contents and capacity caps, and truth.
func assertSameTrace(t *testing.T, got *NodeTrace, want *NodeTrace) {
	t.Helper()
	if !reflect.DeepEqual(got.Markers, want.Markers) {
		t.Fatalf("markers differ: %d vs %d markers", len(got.Markers), len(want.Markers))
	}
	for i := range got.Markers {
		if g, w := cap(got.Markers[i].Deltas), cap(want.Markers[i].Deltas); g != w {
			t.Fatalf("marker %d: deltas cap %d, want %d", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.TruthInstance, want.TruthInstance) {
		t.Fatalf("truth differs: %d vs %d entries", len(got.TruthInstance), len(want.TruthInstance))
	}
}

// TestRecorderMatchesAppendOracle pins the staged recorder to the
// append-based one over random mark sequences: across chunk boundaries and
// the full-size chunk, with truth on and off, and with Finish called mid-run
// before more Marks.
func TestRecorderMatchesAppendOracle(t *testing.T) {
	// Chunk capacities run 256, 512, ..., maxChunk, so staged totals cross
	// a chunk boundary at 256, 768, ..., 7936, 16128.
	counts := []int{0, 1, 255, 256, 257, 767, 768, 769, 7935, 7936, 7937,
		maxChunk - 1, maxChunk, maxChunk + 1, 16127, 16128, 16129}
	rng := randx.New(16)
	for _, truth := range []bool{false, true} {
		for _, n := range counts {
			for _, midFinish := range []bool{false, true} {
				s := &markScript{rng: rng, programLen: 64}
				r := NewRecorder(1, s.programLen, truth)
				ref := newRefRecorder(1, s.programLen, truth)
				split := -1
				if midFinish && n > 0 {
					split = rng.Intn(n)
				}
				var early *NodeTrace
				var earlyMarkers []Marker
				for i := range n {
					if i == split {
						early = r.Finish()
						earlyMarkers = early.Markers
						assertSameTrace(t, early, &ref.nt)
					}
					s.step(r, ref)
				}
				nt := r.Finish()
				if early != nil && nt != early {
					t.Fatalf("truth=%v n=%d: Finish returned a different node trace", truth, n)
				}
				assertSameTrace(t, nt, &ref.nt)
				if again := r.Finish(); !reflect.DeepEqual(again.Markers, ref.nt.Markers) {
					t.Fatalf("truth=%v n=%d: second Finish changed the trace", truth, n)
				}
				if len(earlyMarkers) > 0 && !reflect.DeepEqual(earlyMarkers, ref.nt.Markers[:len(earlyMarkers)]) {
					t.Fatalf("truth=%v n=%d: a view from the mid-run Finish changed", truth, n)
				}
				r.Release()
				nt.Release()
			}
		}
	}
}

// TestRecorderReleaseAndReuse records traces back to back, releasing each
// recorder and node trace into the pools before the next, so later
// recorders stage into recycled chunks and flatten into recycled marker,
// truth, and arena storage; a recorder released before Finish keeps its
// staged markers.
func TestRecorderReleaseAndReuse(t *testing.T) {
	rng := randx.New(17)
	for round := range 6 {
		s := &markScript{rng: rng, programLen: 5000, wide: 0.002}
		truth := round%2 == 0
		r := NewRecorder(round, s.programLen, truth)
		ref := newRefRecorder(round, s.programLen, truth)
		for range 2*maxChunk + rng.Intn(maxChunk) {
			s.step(r, ref)
		}
		if round%3 == 0 {
			r.Release() // before Finish: the staged markers must survive
		}
		nt := r.Finish()
		assertSameTrace(t, nt, &ref.nt)
		r.Release()
		nt.Release()
	}
}

// TestRecorderWideDelta: a delta larger than arenaChunk gets its own arena
// and the markers after it resume in a fresh pooled one.
func TestRecorderWideDelta(t *testing.T) {
	s := &markScript{rng: randx.New(18), programLen: 3 * arenaChunk, wide: 0.3}
	r := NewRecorder(1, s.programLen, true)
	ref := newRefRecorder(1, s.programLen, true)
	for range 100 {
		s.step(r, ref)
	}
	nt := r.Finish()
	assertSameTrace(t, nt, &ref.nt)
	wide := 0
	for _, m := range nt.Markers {
		if len(m.Deltas) > arenaChunk {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no marker carried a delta wider than an arena chunk")
	}
	r.Release()
	nt.Release()
}

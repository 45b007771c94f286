package feature

import (
	"math"
	"sort"
	"sync"
	"testing"

	"sentomist/internal/lifecycle"
	"sentomist/internal/randx"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// counterSparseStableSort is the reference CounterSparse: collect the
// window's nonzero deltas, stable-sort them by pc (keeping each pc's deltas
// in marker order), then coalesce runs. It does not check pcs against
// ProgramLen; callers compare it only on in-program traces.
func counterSparseStableSort(nt *trace.NodeTrace, iv lifecycle.Interval) stats.Sparse {
	type pcCount struct {
		pc    uint16
		count float64
	}
	var pairs []pcCount
	for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
		for _, d := range nt.Markers[m].Deltas {
			if d.Count == 0 {
				continue
			}
			pairs = append(pairs, pcCount{d.PC, float64(d.Count)})
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].pc < pairs[b].pc })
	s := stats.Sparse{
		Idx: make([]int32, 0, len(pairs)),
		Val: make([]float64, 0, len(pairs)),
		Dim: nt.ProgramLen,
	}
	for i := 0; i < len(pairs); {
		pc := pairs[i].pc
		sum := pairs[i].count
		for i++; i < len(pairs) && pairs[i].pc == pc; i++ {
			sum += pairs[i].count
		}
		s.Idx = append(s.Idx, int32(pc))
		s.Val = append(s.Val, sum)
	}
	return s
}

// randomCounterTrace builds a node trace whose deltas stress CounterSparse:
// pcs repeating within and across markers (a small hot set) or spread over
// the whole program up to pc 65,535, zero counts, counts up to the uint32
// maximum, and markers without deltas.
func randomCounterTrace(rng *randx.RNG) *trace.NodeTrace {
	programLen := []int{1, 7, 300, 1 << 16, 1 + rng.Intn(1<<16)}[rng.Intn(5)]
	hot := make([]uint16, 1+rng.Intn(8))
	for i := range hot {
		hot[i] = uint16(rng.Intn(programLen))
	}
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: programLen}
	for m, markers := 0, rng.Intn(12); m < markers; m++ {
		var deltas []trace.Delta
		for d, n := 0, rng.Intn(7); d < n; d++ {
			var pc uint16
			switch rng.Intn(4) {
			case 0:
				pc = uint16(rng.Intn(programLen))
			case 1:
				pc = uint16(programLen - 1)
			default:
				pc = hot[rng.Intn(len(hot))]
			}
			var count uint32
			switch rng.Intn(5) {
			case 0:
				count = 0
			case 1:
				count = math.MaxUint32
			default:
				count = uint32(1 + rng.Intn(100))
			}
			deltas = append(deltas, trace.Delta{PC: pc, Count: count})
		}
		nt.Markers = append(nt.Markers, trace.Marker{Kind: trace.Int, Deltas: deltas})
	}
	return nt
}

func sameSparseBits(a, b stats.Sparse) bool {
	if a.Dim != b.Dim || len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestCounterSparseMatchesStableSort pins CounterSparse bit-for-bit to the
// stable-sort-and-coalesce reference over every window — empty ones
// included — of randomized traces.
func TestCounterSparseMatchesStableSort(t *testing.T) {
	rng := randx.New(7)
	windows := 0
	for trial := 0; trial < 300; trial++ {
		nt := randomCounterTrace(rng)
		ext := NewExtractor(&trace.Trace{Nodes: []*trace.NodeTrace{nt}})
		for start := 0; start < len(nt.Markers); start++ {
			for end := start; end < len(nt.Markers); end++ {
				iv := lifecycle.Interval{Node: nt.NodeID, StartMarker: start, EndMarker: end}
				got, err := ext.CounterSparse(iv)
				if err != nil {
					t.Fatalf("trial %d window (%d,%d]: %v", trial, start, end, err)
				}
				if want := counterSparseStableSort(nt, iv); !sameSparseBits(got, want) {
					t.Fatalf("trial %d window (%d,%d]:\n got  %+v\n want %+v", trial, start, end, got, want)
				}
				windows++
			}
		}
	}
	t.Logf("%d windows", windows)
}

// TestCounterSparseConcurrent shares one Extractor across goroutines, the
// way concurrent mining jobs do: pooled scratch must never leak one call's
// sums into another's.
func TestCounterSparseConcurrent(t *testing.T) {
	rng := randx.New(11)
	var nts []*trace.NodeTrace
	for id := 0; id < 8; id++ {
		nt := randomCounterTrace(rng)
		nt.NodeID = id
		nts = append(nts, nt)
	}
	ext := NewExtractor(&trace.Trace{Nodes: nts})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, nt := range nts[w%2:] {
					for end := 0; end < len(nt.Markers); end++ {
						iv := lifecycle.Interval{Node: nt.NodeID, EndMarker: end}
						got, err := ext.CounterSparse(iv)
						if err != nil {
							t.Error(err)
							return
						}
						if !sameSparseBits(got, counterSparseStableSort(nt, iv)) {
							t.Errorf("node %d window (0,%d] diverged from the reference", nt.NodeID, end)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCounterSparseMatchesCounter(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	ext := NewExtractor(tr)
	for _, iv := range ivs {
		dense, err := ext.Counter(iv)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := ext.CounterSparse(iv)
		if err != nil {
			t.Fatal(err)
		}
		if sparse.Dim != len(dense) {
			t.Fatalf("sparse dim %d, dense %d", sparse.Dim, len(dense))
		}
		got := sparse.Dense()
		for d := range dense {
			if got[d] != dense[d] {
				t.Fatalf("interval seq %d dim %d: sparse %g != dense %g", iv.Seq, d, got[d], dense[d])
			}
		}
		for _, v := range sparse.Val {
			if v == 0 {
				t.Fatal("sparse counter stores an explicit zero")
			}
		}
	}
}

func TestCounterSparseRejectsBadMarkers(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	ext := NewExtractor(tr)
	bad := ivs[0]
	bad.EndMarker = 99
	if _, err := ext.CounterSparse(bad); err == nil {
		t.Fatal("out-of-range marker accepted")
	}
	bad = ivs[0]
	bad.Node = 42
	if _, err := ext.CounterSparse(bad); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// TestCounterSparseRejectsPCOutsideProgram: a delta past ProgramLen is an
// error, not an index past Dim handed on to Scale01Sparse, and the failed
// call leaves no residue in the pooled scratch.
func TestCounterSparseRejectsPCOutsideProgram(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	ext := NewExtractor(tr)
	want, err := ext.CounterSparse(ivs[0])
	if err != nil {
		t.Fatal(err)
	}
	nt := tr.Nodes[0]
	nt.ProgramLen = 5 // the task's delta at pc 5 now lies outside
	if _, err := ext.CounterSparse(ivs[0]); err == nil {
		t.Fatal("pc outside the program accepted")
	}
	nt.ProgramLen = 10
	got, err := ext.CounterSparse(ivs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !sameSparseBits(got, want) {
		t.Fatalf("counter after a rejected call: %+v, want %+v", got, want)
	}
}

func TestScale01SparseMatchesScale01(t *testing.T) {
	denseRows := [][]float64{
		{0, 4, 7, 0, 5, 0},
		{2, 4, 0, 0, 5, 1},
		{1, 4, 3, 0, 5, 0},
	}
	// Independent copies: Scale01 mutates in place.
	ref := make([][]float64, len(denseRows))
	sparseRows := make([]stats.Sparse, len(denseRows))
	for i, r := range denseRows {
		ref[i] = append([]float64(nil), r...)
		sparseRows[i] = stats.DenseToSparse(r)
	}
	Scale01(ref)
	Scale01Sparse(sparseRows)
	for i := range ref {
		got := sparseRows[i].Dense()
		for d := range ref[i] {
			if got[d] != ref[i][d] {
				t.Fatalf("row %d dim %d: sparse %g != dense %g", i, d, got[d], ref[i][d])
			}
		}
	}
	// Dimension 1 (constant 4) and dimension 4 (constant 5) collapse to
	// zero; entries at scaled-to-zero positions are dropped.
	for i, s := range sparseRows {
		for _, v := range s.Val {
			if v == 0 {
				t.Fatalf("row %d keeps an explicit zero after scaling", i)
			}
		}
	}
}

func TestScale01SparseRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative value")
		}
	}()
	Scale01Sparse([]stats.Sparse{stats.DenseToSparse([]float64{1, -2, 0})})
}

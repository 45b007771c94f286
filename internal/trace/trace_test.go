package trace

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		Seed:   42,
		Cycles: 1000,
		Nodes: []*NodeTrace{
			{
				NodeID:     1,
				ProgramLen: 8,
				Markers: []Marker{
					{Kind: Int, Arg: 3, Cycle: 100, Deltas: []Delta{{PC: 0, Count: 2}}},
					{Kind: PostTask, Arg: 0, Cycle: 110, Deltas: []Delta{{PC: 1, Count: 5}, {PC: 2, Count: 1}}},
					{Kind: Reti, Cycle: 120},
					{Kind: RunTask, Arg: 0, Cycle: 200},
					{Kind: TaskEnd, Arg: 0, Cycle: 300, Deltas: []Delta{{PC: 3, Count: 7}}},
				},
				TruthInstance: []int{1, 1, 1, 1, 1},
			},
			{NodeID: 2, ProgramLen: 4},
		},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"nil node", func(tr *Trace) { tr.Nodes[0] = nil }, "nil node"},
		{"bad kind", func(tr *Trace) { tr.Nodes[0].Markers[0].Kind = 99 }, "bad kind"},
		{"cycle regression", func(tr *Trace) { tr.Nodes[0].Markers[3].Cycle = 50 }, "before"},
		{"pc outside", func(tr *Trace) { tr.Nodes[0].Markers[0].Deltas[0].PC = 200 }, "outside program"},
		{"zero-count delta", func(tr *Trace) { tr.Nodes[0].Markers[0].Deltas[0].Count = 0 }, "zero-count"},
		{"truth length", func(tr *Trace) { tr.Nodes[0].TruthInstance = []int{1} }, "truth entries"},
		{"duplicate node", func(tr *Trace) { tr.Nodes[1].NodeID = tr.Nodes[0].NodeID }, "duplicate node"},
		{"program too long", func(tr *Trace) { tr.Nodes[0].ProgramLen = 1<<16 + 1 }, "program length"},
		{"negative program length", func(tr *Trace) { tr.Nodes[1].ProgramLen = -1 }, "program length"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := sampleTrace()
			tt.mutate(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatal("mutated trace accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestNodeLookup(t *testing.T) {
	tr := sampleTrace()
	if tr.Node(1) == nil || tr.Node(2) == nil {
		t.Fatal("node lookup failed")
	}
	if tr.Node(99) != nil {
		t.Fatal("lookup invented a node")
	}
}

func TestKindString(t *testing.T) {
	wants := map[Kind]string{
		PostTask: "postTask", RunTask: "runTask", Int: "int", Reti: "reti", TaskEnd: "taskEnd",
	}
	for k, want := range wants {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if !strings.Contains(Kind(77).String(), "77") {
		t.Error("unknown kind string")
	}
}

func TestMarkerString(t *testing.T) {
	m := Marker{Kind: Int, Arg: 3, Cycle: 42}
	if got := m.String(); got != "int(3)@42" {
		t.Errorf("marker string %q", got)
	}
}

func TestRecorderDeltas(t *testing.T) {
	r := NewRecorder(1, 8, true)
	r.CountPC(0)
	r.CountPC(0)
	r.CountPC(3)
	r.Mark(Int, 1, 100, 1)
	r.CountPC(5)
	r.Mark(Reti, 0, 200, 1)
	r.Mark(PostTask, 0, 300, 2) // no instructions since reti

	nt := r.Finish()
	if len(nt.Markers) != 3 {
		t.Fatalf("%d markers", len(nt.Markers))
	}
	d0 := nt.Markers[0].Deltas
	if len(d0) != 2 || d0[0] != (Delta{PC: 0, Count: 2}) || d0[1] != (Delta{PC: 3, Count: 1}) {
		t.Fatalf("first delta %v", d0)
	}
	if len(nt.Markers[1].Deltas) != 1 || nt.Markers[1].Deltas[0] != (Delta{PC: 5, Count: 1}) {
		t.Fatalf("second delta %v", nt.Markers[1].Deltas)
	}
	if nt.Markers[2].Deltas != nil {
		t.Fatalf("empty delta should be nil, got %v", nt.Markers[2].Deltas)
	}
	if nt.TruthInstance[2] != 2 {
		t.Fatal("truth not recorded")
	}
}

func TestRecorderWithoutTruth(t *testing.T) {
	r := NewRecorder(1, 4, false)
	r.Mark(Int, 1, 10, 5)
	if r.Finish().TruthInstance != nil {
		t.Fatal("truth recorded despite being disabled")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.trace", "t.json"} {
		path := filepath.Join(dir, name)
		tr := sampleTrace()
		if err := tr.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertTraceEqual(t, tr, got)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("this is not a trace file at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("SENTTRC1garbage")); err == nil {
		t.Fatal("corrupt body accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsInvalidTrace(t *testing.T) {
	tr := sampleTrace()
	tr.Nodes[0].Markers[0].Kind = 99 // invalid, but gob-encodable
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("invalid trace accepted on read")
	}
}

func TestSizeBytes(t *testing.T) {
	tr := sampleTrace()
	size := tr.SizeBytes()
	// 16 + 2 nodes*8 + 5 markers*11 + 4 deltas*6 = 111
	if size != 111 {
		t.Fatalf("SizeBytes = %d, want 111", size)
	}
}

func assertTraceEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Seed != b.Seed || a.Cycles != b.Cycles || len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	for i := range a.Nodes {
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.NodeID != nb.NodeID || na.ProgramLen != nb.ProgramLen || len(na.Markers) != len(nb.Markers) {
			t.Fatalf("node %d header mismatch", i)
		}
		for j := range na.Markers {
			ma, mb := na.Markers[j], nb.Markers[j]
			if ma.Kind != mb.Kind || ma.Arg != mb.Arg || ma.Cycle != mb.Cycle || len(ma.Deltas) != len(mb.Deltas) {
				t.Fatalf("node %d marker %d mismatch: %v vs %v", i, j, ma, mb)
			}
			for k := range ma.Deltas {
				if ma.Deltas[k] != mb.Deltas[k] {
					t.Fatalf("delta mismatch at %d/%d/%d", i, j, k)
				}
			}
		}
	}
}

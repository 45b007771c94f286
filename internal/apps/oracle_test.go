package apps

import (
	"strings"
	"testing"

	"sentomist/internal/dev"
	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/trace"
)

// Synthetic-trace fixtures for the hang oracle: a hand-built marker series
// lets the tests place FAIL and skip deltas at exact marker positions —
// including the off-by-one boundary a real run only hits by luck.

const (
	synthFailPC = 10
	synthSkipPC = 20
)

// synthHangRun builds a one-node Run whose program defines cst_fail and
// cst_skip at known PCs and whose trace is exactly markers.
func synthHangRun(markers []trace.Marker) *Run {
	prog := &isa.Program{
		Symbols: map[uint16][]string{
			synthFailPC: {"cst_fail"},
			synthSkipPC: {"cst_skip"},
		},
	}
	return &Run{
		Programs: map[int]*isa.Program{1: prog},
		Trace: &trace.Trace{Nodes: []*trace.NodeTrace{{
			NodeID:     1,
			ProgramLen: 64,
			Markers:    markers,
		}}},
	}
}

func synthInterval(start, end int) lifecycle.Interval {
	return lifecycle.Interval{IRQ: dev.IRQTimer0, Node: 1, StartMarker: start, EndMarker: end}
}

func mustSymptom(t *testing.T, run *Run, iv lifecycle.Interval) bool {
	t.Helper()
	sym, err := HangSymptom(run, iv, dev.IRQTimer0, "cst_fail", "cst_skip")
	if err != nil {
		t.Fatal(err)
	}
	return sym
}

// TestHangSymptomBoundaryFail is the regression test for the off-by-one the
// oracle used to have: a FAIL whose delta lands in the interval's own start
// marker is concurrent with the interval's entry at trace resolution, so a
// skip in that interval must NOT read as a post-hang symptom. A FAIL one
// marker earlier must.
func TestHangSymptomBoundaryFail(t *testing.T) {
	mk := func(kind trace.Kind, cycle uint64, deltas ...trace.Delta) trace.Marker {
		return trace.Marker{Kind: kind, Arg: dev.IRQTimer0, Cycle: cycle, Deltas: deltas}
	}
	skip := trace.Delta{PC: synthSkipPC, Count: 1}
	fail := trace.Delta{PC: synthFailPC, Count: 1}

	// FAIL delta attributed to the interval's start marker itself.
	atBoundary := synthHangRun([]trace.Marker{
		mk(trace.Int, 100),
		mk(trace.Reti, 110),
		mk(trace.Int, 200, fail), // delta window ends at interval entry
		mk(trace.Reti, 210, skip),
	})
	if mustSymptom(t, atBoundary, synthInterval(2, 3)) {
		t.Error("FAIL at the interval's own start marker classified a pre-FAIL skip as a hang symptom")
	}

	// Same shape with the FAIL strictly earlier: a genuine post-hang skip.
	earlier := synthHangRun([]trace.Marker{
		mk(trace.Int, 100, fail),
		mk(trace.Reti, 110),
		mk(trace.Int, 200),
		mk(trace.Reti, 210, skip),
	})
	if !mustSymptom(t, earlier, synthInterval(2, 3)) {
		t.Error("skip after a strictly-earlier FAIL not reported as a hang symptom")
	}

	// The trigger interval itself is always symptomatic.
	if !mustSymptom(t, earlier, synthInterval(-1, 0)) {
		t.Error("FAIL-trigger interval not reported as a symptom")
	}

	// A skip with no FAIL anywhere is the protocol legitimately busy.
	noFail := synthHangRun([]trace.Marker{
		mk(trace.Int, 100),
		mk(trace.Reti, 110, skip),
	})
	if mustSymptom(t, noFail, synthInterval(0, 1)) {
		t.Error("skip without any FAIL reported as a hang symptom")
	}
}

// TestHangSymptomIntervalAtMarkerZero: an interval starting at the very
// first marker has no strictly-earlier history, so even a FAIL in marker 0
// cannot make its skip a post-hang symptom.
func TestHangSymptomIntervalAtMarkerZero(t *testing.T) {
	run := synthHangRun([]trace.Marker{
		{Kind: trace.Int, Arg: dev.IRQTimer0, Cycle: 0,
			Deltas: []trace.Delta{{PC: synthFailPC, Count: 1}}},
		{Kind: trace.Reti, Cycle: 10,
			Deltas: []trace.Delta{{PC: synthSkipPC, Count: 1}}},
	})
	if mustSymptom(t, run, synthInterval(0, 1)) {
		t.Error("interval at marker 0 reported a post-hang skip with no earlier history")
	}
}

// TestHangSymptomWrongIRQ: the oracle only judges intervals of its event
// type.
func TestHangSymptomWrongIRQ(t *testing.T) {
	run := synthHangRun([]trace.Marker{
		{Kind: trace.Int, Arg: dev.IRQTimer1, Cycle: 0,
			Deltas: []trace.Delta{{PC: synthFailPC, Count: 1}}},
	})
	iv := lifecycle.Interval{IRQ: dev.IRQTimer1, Node: 1, StartMarker: -1, EndMarker: 0}
	sym, err := HangSymptom(run, iv, dev.IRQTimer0, "cst_fail", "cst_skip")
	if err != nil {
		t.Fatal(err)
	}
	if sym {
		t.Error("interval of a different IRQ judged symptomatic")
	}
}

// TestOracleErrors: malformed questions are errors, never symptom-absent —
// a typo'd label or a missing node must not quietly zero out a metric.
func TestOracleErrors(t *testing.T) {
	run := synthHangRun([]trace.Marker{
		{Kind: trace.Int, Arg: dev.IRQTimer0, Cycle: 0},
		{Kind: trace.Reti, Cycle: 10},
	})

	t.Run("missing label", func(t *testing.T) {
		_, err := IntervalExecutedLabel(run, synthInterval(0, 1), "no_such_label")
		if err == nil || !strings.Contains(err.Error(), "no_such_label") {
			t.Fatalf("missing label: got err %v, want label-not-found", err)
		}
	})
	t.Run("missing program", func(t *testing.T) {
		iv := synthInterval(0, 1)
		iv.Node = 99
		_, err := IntervalExecutedLabel(run, iv, "cst_fail")
		if err == nil || !strings.Contains(err.Error(), "no program") {
			t.Fatalf("missing program: got err %v, want no-program", err)
		}
	})
	t.Run("missing trace", func(t *testing.T) {
		// Program present, trace absent.
		r := synthHangRun(nil)
		r.Trace = &trace.Trace{}
		_, err := IntervalExecutedLabel(r, synthInterval(0, 1), "cst_fail")
		if err == nil || !strings.Contains(err.Error(), "no trace") {
			t.Fatalf("missing trace: got err %v, want no-trace", err)
		}
	})
	t.Run("case I missing trace", func(t *testing.T) {
		r := synthHangRun(nil)
		r.Trace = &trace.Trace{}
		_, err := CaseISymptom(r, synthInterval(0, 1))
		if err == nil || !strings.Contains(err.Error(), "no trace") {
			t.Fatalf("missing trace: got err %v, want no-trace", err)
		}
	})
	t.Run("typo'd skip label errors on trigger intervals too", func(t *testing.T) {
		trig := synthHangRun([]trace.Marker{
			{Kind: trace.Int, Arg: dev.IRQTimer0, Cycle: 0},
			{Kind: trace.Reti, Cycle: 10,
				Deltas: []trace.Delta{{PC: synthFailPC, Count: 1}}},
		})
		_, err := HangSymptom(trig, synthInterval(0, 1), dev.IRQTimer0, "cst_fail", "cst_skpi")
		if err == nil || !strings.Contains(err.Error(), "cst_skpi") {
			t.Fatalf("typo'd skip label on a trigger interval: got err %v, want label-not-found", err)
		}
	})
	t.Run("label present but never executed is symptom-absent", func(t *testing.T) {
		sym, err := IntervalExecutedLabel(run, synthInterval(0, 1), "cst_fail")
		if err != nil {
			t.Fatal(err)
		}
		if sym {
			t.Error("unexecuted label read as a symptom")
		}
	})
}

// TestFirstMarkerWithPCMatchesNaiveScan pins the memoized first-FAIL index
// against the naive per-ask prefix scan it replaced, on a real Case-III
// run, and checks the memo is stable across asks.
func TestFirstMarkerWithPCMatchesNaiveScan(t *testing.T) {
	run, err := RunCTPHeartbeat(CTPConfig{Seconds: 10, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	naive := func(node int, pc uint16) int {
		nt := run.Trace.Node(node)
		if nt == nil {
			return -1
		}
		for m := range nt.Markers {
			for _, d := range nt.Markers[m].Deltas {
				if d.PC == pc && d.Count > 0 {
					return m
				}
			}
		}
		return -1
	}
	for _, id := range CTPSources {
		for _, label := range []string{"cst_fail", "cst_skip"} {
			pc, err := LabelPC(run.Program(id), label)
			if err != nil {
				t.Fatal(err)
			}
			want := naive(id, pc)
			if got := run.FirstMarkerWithPC(id, pc); got != want {
				t.Errorf("node %d %s: FirstMarkerWithPC=%d, naive scan=%d", id, label, got, want)
			}
			if got := run.FirstMarkerWithPC(id, pc); got != want {
				t.Errorf("node %d %s: memoized answer drifted to %d", id, label, got)
			}
		}
	}
	// Absent node and absent PC answer -1.
	if got := run.FirstMarkerWithPC(99, 0); got != -1 {
		t.Errorf("unknown node: got %d, want -1", got)
	}
}

// pollutionSymptomItems is the reference Case-I oracle: the post-then-ADC
// rule walked over the instance's items [StartItem, EndItem] of the node's
// full lifecycle sequence.
func pollutionSymptomItems(seq *lifecycle.Sequence, iv lifecycle.Interval) bool {
	if iv.IRQ != dev.IRQADC || !iv.EndsWithTask {
		return false
	}
	items := seq.Items()
	posted := false
	for i := iv.StartItem + 1; i <= iv.EndItem && i < len(items); i++ {
		it := items[i]
		switch {
		case it.Kind == trace.PostTask && it.Arg == 0:
			posted = true
		case posted && it.Kind == trace.Int && it.Arg == dev.IRQADC:
			return true
		}
	}
	return false
}

// TestPollutionSymptomMatchesItemWalk pins the in-place marker walk to the
// item-sequence reference on every sensor interval of buggy and fixed
// Case-I runs across seeds and sampling periods.
func TestPollutionSymptomMatchesItemWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	intervals, symptomatic := 0, 0
	for _, fixed := range []bool{false, true} {
		for seed := uint64(1); seed <= 12; seed++ {
			for _, period := range []int{20, 40, 60, 80, 100} {
				run, err := RunOscilloscope(OscConfig{PeriodMS: period, Seconds: 10, Seed: seed, Fixed: fixed})
				if err != nil {
					t.Fatal(err)
				}
				nt := run.Trace.Node(OscSensorID)
				seq := lifecycle.NewSequence(nt)
				ivs, err := seq.Extract()
				if err != nil {
					t.Fatal(err)
				}
				for _, iv := range ivs {
					got, want := PollutionSymptom(nt, iv), pollutionSymptomItems(seq, iv)
					if got != want {
						t.Fatalf("fixed=%v seed %d D=%d interval %+v: marker walk %v, item walk %v",
							fixed, seed, period, iv, got, want)
					}
					intervals++
					if got {
						symptomatic++
					}
				}
			}
		}
	}
	t.Logf("%d intervals agree, %d symptomatic", intervals, symptomatic)
	if symptomatic == 0 {
		t.Fatal("no symptomatic interval: the comparison is vacuous")
	}
}

// TestPollutionSymptomStopsAtLastRunTask pins the window's end on
// hand-built traces: an ADC interrupt that preempts the instance's final
// task (between its runTask and the closing TaskEnd) is outside the
// instance's items and is no symptom, while one between the post and the
// run is.
func TestPollutionSymptomStopsAtLastRunTask(t *testing.T) {
	mk := func(kind trace.Kind, arg int) trace.Marker { return trace.Marker{Kind: kind, Arg: arg} }
	for _, c := range []struct {
		name    string
		markers []trace.Marker
		want    bool
	}{
		{"adc-before-run", []trace.Marker{
			mk(trace.Int, dev.IRQADC), mk(trace.PostTask, 0), mk(trace.Reti, 0),
			mk(trace.Int, dev.IRQADC), mk(trace.Reti, 0),
			mk(trace.RunTask, 0), mk(trace.TaskEnd, 0),
		}, true},
		{"adc-preempts-task", []trace.Marker{
			mk(trace.Int, dev.IRQADC), mk(trace.PostTask, 0), mk(trace.Reti, 0),
			mk(trace.RunTask, 0),
			mk(trace.Int, dev.IRQADC), mk(trace.Reti, 0),
			mk(trace.TaskEnd, 0),
		}, false},
	} {
		nt := &trace.NodeTrace{NodeID: OscSensorID, Markers: c.markers}
		seq := lifecycle.NewSequence(nt)
		ivs, err := seq.Extract()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		iv := ivs[0]
		if got, ref := PollutionSymptom(nt, iv), pollutionSymptomItems(seq, iv); got != c.want || ref != c.want {
			t.Fatalf("%s: marker walk %v, item walk %v, want %v (interval %+v)", c.name, got, ref, c.want, iv)
		}
	}
}

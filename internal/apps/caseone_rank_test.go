package apps

import (
	"testing"

	"sentomist/internal/core"
	"sentomist/internal/dev"
)

// TestCaseOneRanking reproduces the shape of Figure 5(a): pool five testing
// runs (D = 20..100 ms, 10 s each), mine the ADC event type, and check that
// the top-ranked intervals are exactly the data-pollution symptoms.
func TestCaseOneRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run case study")
	}
	var inputs []core.RunInput
	var runs []*Run
	for i, d := range []int{20, 40, 60, 80, 100} {
		run, err := RunOscilloscope(OscConfig{PeriodMS: d, Seconds: 10, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		runs = append(runs, run)
		inputs = append(inputs, core.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	ranking, err := core.Mine(inputs, core.Config{
		IRQ:   dev.IRQADC,
		Nodes: []int{OscSensorID},
	})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	t.Logf("samples=%d dim=%d excluded=%d", len(ranking.Samples), ranking.Dim, ranking.Excluded)

	// Oracle per run.
	symptomatic := func(s core.Sample) bool {
		return PollutionSymptom(runs[s.Run-1].Trace.Node(OscSensorID), s.Interval)
	}
	total := 0
	for _, s := range ranking.Samples {
		if symptomatic(s) {
			total++
		}
	}
	t.Logf("total symptomatic: %d", total)
	for i, s := range ranking.Top(10) {
		t.Logf("rank %2d: %-10s score=%8.4f symptom=%v dur=%dus",
			i+1, s.Label(core.LabelRunSeq), s.Score, symptomatic(s), s.Interval.Duration())
	}
	if total == 0 {
		t.Fatalf("no symptomatic intervals in any run")
	}
	// Shape criterion: every symptomatic interval must rank above every
	// normal one (the paper found all confirmed symptoms in the top-3).
	for i, s := range ranking.Samples {
		if i < total && !symptomatic(s) {
			t.Errorf("rank %d (%s, score %.4f) is not symptomatic but %d symptomatic intervals exist",
				i+1, s.Label(core.LabelRunSeq), s.Score, total)
		}
	}
}

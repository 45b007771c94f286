package apps

import (
	"testing"

	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
	"sentomist/internal/trace"
)

// TestSequentialModeCannotTriggerTheRace reproduces the paper's Section
// VI-E argument for cycle-accurate emulation over TOSSIM: a simulator that
// executes events "in a consequential manner" — event procedures atomic,
// no preemption — never produces the interleaving that pollutes the
// packet, so there is no symptom for ANY tool to find. The identical
// program under the preemptive (Avrora-like) substrate triggers the race.
func TestSequentialModeCannotTriggerTheRace(t *testing.T) {
	countPollutions := func(sequential bool) (pollutions, intervals int) {
		run, err := RunOscilloscope(OscConfig{
			PeriodMS: 20, Seconds: 10, Seed: 1, Sequential: sequential,
		})
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
			if iv.IRQ != dev.IRQADC {
				continue
			}
			intervals++
			if PollutionSymptom(nt, iv) {
				pollutions++
			}
		}
		return pollutions, intervals
	}

	preemptive, nPre := countPollutions(false)
	sequential, nSeq := countPollutions(true)
	t.Logf("preemptive: %d pollutions / %d ADC intervals; sequential: %d / %d",
		preemptive, nPre, sequential, nSeq)
	if preemptive == 0 {
		t.Error("preemptive substrate did not trigger the race; the comparison is vacuous")
	}
	if sequential != 0 {
		t.Errorf("sequential (TOSSIM-like) mode triggered %d races; it must not be able to", sequential)
	}
	if nSeq == 0 {
		t.Error("sequential run produced no ADC intervals at all")
	}
}

// TestSequentialModeNeverNestsOrPreempts: structural check that in
// sequential mode no interrupt marker ever appears inside a handler window
// or between a runTask and its taskEnd.
func TestSequentialModeNeverNestsOrPreempts(t *testing.T) {
	run, err := RunOscilloscope(OscConfig{
		PeriodMS: 20, Seconds: 10, Seed: 3, Sequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nt := run.Trace.Node(OscSensorID)
	ivs, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	seq := lifecycle.NewSequence(nt)
	items := seq.Items()
	for _, iv := range ivs {
		for i := iv.StartItem + 1; i < iv.EndItem && i < len(items); i++ {
			if items[i].Kind == trace.Int {
				t.Fatalf("interval starting at item %d contains a nested int at item %d under sequential mode",
					iv.StartItem, i)
			}
		}
	}
}

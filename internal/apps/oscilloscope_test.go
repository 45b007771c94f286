package apps

import (
	"testing"

	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
)

func TestOscilloscopeRunsAndPollutes(t *testing.T) {
	run, err := RunOscilloscope(OscConfig{PeriodMS: 20, Seconds: 10, Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	nt := run.Trace.Node(OscSensorID)
	if nt == nil || len(nt.Markers) == 0 {
		t.Fatalf("sensor produced no trace")
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	seq := lifecycle.NewSequence(nt)
	ivs, err := seq.Extract()
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	groups := lifecycle.GroupByIRQ(ivs)
	adc := groups[dev.IRQADC]
	t.Logf("intervals: total=%d adc=%d timer0=%d timer1=%d txdone=%d",
		len(ivs), len(adc), len(groups[dev.IRQTimer0]), len(groups[dev.IRQTimer1]), len(groups[dev.IRQTxDone]))
	if len(adc) < 400 {
		t.Fatalf("expected ~500 ADC intervals at D=20ms over 10s, got %d", len(adc))
	}
	polluted := 0
	for _, iv := range adc {
		if PollutionSymptom(nt, iv) {
			polluted++
		}
	}
	t.Logf("polluted ADC intervals: %d", polluted)
	if polluted == 0 {
		t.Fatalf("expected at least one data-pollution symptom at D=20ms")
	}
	if len(run.Net.Deliveries()) == 0 {
		t.Fatalf("no packets delivered to the sink")
	}
	t.Logf("deliveries: %d", len(run.Net.Deliveries()))
}

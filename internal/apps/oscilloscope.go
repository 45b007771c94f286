package apps

import (
	"fmt"

	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
	"sentomist/internal/trace"
)

// Case I — the paper's Section VI-B: a single-hop data-collection WSN
// adapted from Oscilloscope. A sensor node samples its ADC every D ms and
// sends every three readings in one packet to a sink. The ADC event
// procedure is the paper's Figure 2, including its transient data-pollution
// race: if a fourth ADC interrupt fires before the posted send task runs,
// packet[0] is overwritten and the stale-looking packet goes out polluted.
//
// A periodic maintenance task (driven by a second timer) occasionally
// occupies the task queue for ~30 ms, which is the realistic load that
// delays the send task long enough for the race to strike — but only when
// D = 20 ms, matching the paper's observation that the symptomatic
// intervals all come from the fastest-sampling run.

// OscSinkID and OscSensorID are the node IDs of the case-I topology.
const (
	OscSinkID   = 0
	OscSensorID = 1
)

// oscSensorSource builds the sensor program. d is the sampling period in
// cycles (halved into the prescaler when it exceeds 16 bits); the buggy
// flag selects the Figure-2 race or the double-buffered fix. The
// maintenance timer base is 41,650 cycles with a /8 software divider
// (~333 ms), and the maintenance task spins for ~30 ms.
func oscSensorSource(d uint64, buggy bool) string {
	pre := 0
	for d > 0xffff {
		d >>= 1
		pre++
	}
	// Buggy path: the send task reads packet[] directly, so a late run
	// lets a new reading pollute slot 0 (paper Figure 2, lines 5-12).
	adcTail := `
	cpi  r1, 3              ; if (dataItem == 3)          (line 9)
	brne adc_done
	ldi  r1, 0              ; dataItem = 0                (line 11)
	sts  dataItem, r1
	post 0                  ; post prepareAndSendPacket() (line 12)
`
	sendLoad := `
	ldx  r1, packet, r2
`
	if !buggy {
		// Fix: snapshot the readings into a private send buffer in
		// the same event procedure that completes the triple, before
		// posting; the task reads the snapshot.
		adcTail = `
	cpi  r1, 3
	brne adc_done
	ldi  r1, 0
	sts  dataItem, r1
	lds  r1, packet
	sts  sendbuf, r1
	lds  r1, packet+1
	sts  sendbuf+1, r1
	lds  r1, packet+2
	sts  sendbuf+2, r1
	post 0
`
		sendLoad = `
	ldx  r1, sendbuf, r2
`
	}
	return prelude + fmt.Sprintf(`
.var dataItem
.var packet, 3
.var sendbuf, 3
.var t1cnt

.vector 1, timer0_isr
.vector 2, timer1_isr
.vector 3, adc_isr
.vector 5, txdone_isr
.task 0, send_task
.task 1, maint_task
.entry boot

boot:
	ldi  r0, 0
	sts  dataItem, r0
	sts  t1cnt, r0
	ldi  r0, %d
	out  T0_LO, r0
	ldi  r0, %d
	out  T0_HI, r0
	ldi  r0, %d
	out  T0_PRE, r0
	ldi  r0, %d             ; maintenance timer: 41650 cycles
	out  T1_LO, r0
	ldi  r0, %d
	out  T1_HI, r0
	ldi  r0, 1
	out  T0_CTRL, r0
	out  T1_CTRL, r0
	sei
	osrun

; Sampling timer: request an ADC conversion (the paper's internal event).
timer0_isr:
	push r0
	ldi  r0, 1
	out  ADC_CTRL, r0
	pop  r0
	reti

; Maintenance-load timer with a /8 software divider (~333 ms).
timer1_isr:
	push r0
	lds  r0, t1cnt
	inc  r0
	sts  t1cnt, r0
	cpi  r0, 8
	brne t1_done
	ldi  r0, 0
	sts  t1cnt, r0
	post 1
t1_done:
	pop  r0
	reti

; Figure 2: event void Read.readDone(error_t error, uint16_t data)
adc_isr:
	push r0
	push r1
	in   r0, ADC_DATA       ; data
	lds  r1, dataItem
	stx  packet, r1, r0     ; packet->data[dataItem] = data (line 5)
	inc  r1                 ; dataItem++                    (line 6)
	sts  dataItem, r1
%s
adc_done:
	pop  r1
	pop  r0
	reti

txdone_isr:
	reti

; prepareAndSendPacket(): ship the three readings to the sink.
send_task:
	ldi  r0, %d             ; sink node ID
	out  TX_DST, r0
	ldi  r2, 0
send_loop:
%s
	out  TX_FIFO, r1
	inc  r2
	cpi  r2, 3
	brne send_loop
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	ret

; Link-quality bookkeeping stand-in: ~30 ms of computation.
maint_task:
	push r0
	push r1
	ldi  r0, 39
maint_outer:
	ldi  r1, 0
maint_inner:
	dec  r1
	brne maint_inner
	dec  r0
	brne maint_outer
	pop  r1
	pop  r0
	ret
`, d&0xff, d>>8, pre, 41650&0xff, 41650>>8, adcTail, OscSinkID, sendLoad)
}

// oscSinkSource is the sink: drain every received frame.
const oscSinkSource = prelude + `
.vector 4, rx_isr
.entry boot

boot:
	sei
	osrun

rx_isr:
	push r0
	push r1
	in   r0, RX_LEN
rx_drain:
	cpi  r0, 0
	breq rx_done
	in   r1, RX_FIFO
	dec  r0
	jmp  rx_drain
rx_done:
	pop  r1
	pop  r0
	reti
`

// OscConfig configures one Case-I testing run.
type OscConfig struct {
	// PeriodMS is the sampling period D in milliseconds (the paper uses
	// 20, 40, 60, 80, 100 across five runs).
	PeriodMS int
	// Seconds is the run length (the paper: 10 s).
	Seconds float64
	// Seed drives all randomness.
	Seed uint64
	// Fixed selects the race-free variant.
	Fixed bool
	// Sequential runs the sensor node under TOSSIM-like discrete-event
	// semantics (no preemption): the paper's Section VI-E argues such a
	// simulator cannot capture the interleavings that trigger this bug.
	Sequential bool
	// Reference runs the whole scenario on the single-step reference
	// engine, for differential testing against the batched engine.
	Reference bool
	// Stream installs per-node streaming sinks: markers (with their
	// instruction-count deltas) are delivered online as each node
	// records them — the hook for the streaming featuring pipeline.
	Stream map[int]trace.StreamSink
	// DiscardMarkers drops markers from the materialized trace on every
	// node; with Stream sinks installed, the online consumers are then
	// the only output of the record phase.
	DiscardMarkers bool
}

// RunOscilloscope executes one Case-I run and returns its trace.
func RunOscilloscope(cfg OscConfig) (*Run, error) {
	if cfg.PeriodMS <= 0 {
		return nil, fmt.Errorf("apps: oscilloscope period %d ms invalid", cfg.PeriodMS)
	}
	d := uint64(cfg.PeriodMS) * (CyclesPerSecond / 1000)
	sensorSrc, err := assembleCached(oscSensorSource(d, !cfg.Fixed))
	if err != nil {
		return nil, fmt.Errorf("apps: sensor: %w", err)
	}
	sinkSrc, err := assembleCached(oscSinkSource)
	if err != nil {
		return nil, fmt.Errorf("apps: sink: %w", err)
	}

	b := newBuilder(cfg.Seed)
	b.reference = cfg.Reference
	if _, err := b.addNode(OscSinkID, sinkSrc, nodeOpts{
		radio: true,
		sink:  cfg.Stream[OscSinkID], discard: cfg.DiscardMarkers,
	}); err != nil {
		return nil, err
	}
	if _, err := b.addNode(OscSensorID, sensorSrc, nodeOpts{
		timer0: true, timer1: true, adc: true, radio: true,
		sequential: cfg.Sequential,
		sink:       cfg.Stream[OscSensorID], discard: cfg.DiscardMarkers,
	}); err != nil {
		return nil, err
	}
	b.net.AddSymmetricLink(OscSinkID, OscSensorID, 0.02)
	return b.execute(cfg.Seconds)
}

// PollutionSymptom is the Case-I ground-truth oracle: the interval shows
// the Figure-2 race if, between the instance's post of the send task and
// the task's run, another ADC interrupt fired — the exact outlier pattern
// the paper spells out in Section V ("ADC interrupt, posting a task,
// interrupt exit, ADC interrupt, interrupt exit, running the task").
//
// It walks nt's markers in (iv.StartMarker, r], where r is the instance's
// last runTask: the last RunTask marker at or before iv.EndMarker, since
// tasks do not nest and none can start between r and the TaskEnd that
// closes the window. That is the instance's own lifecycle items, read in
// place in O(interval) without building the node's item sequence.
func PollutionSymptom(nt *trace.NodeTrace, iv lifecycle.Interval) bool {
	if iv.IRQ != dev.IRQADC || !iv.EndsWithTask {
		return false
	}
	markers := nt.Markers
	r := min(iv.EndMarker, len(markers)-1)
	for r > iv.StartMarker && markers[r].Kind != trace.RunTask {
		r--
	}
	posted := false
	for m := max(iv.StartMarker+1, 0); m <= r; m++ {
		mk := &markers[m]
		switch {
		case mk.Kind == trace.PostTask && mk.Arg == 0:
			posted = true
		case posted && mk.Kind == trace.Int && mk.Arg == dev.IRQADC:
			return true
		}
	}
	return false
}

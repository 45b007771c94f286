package apps

import (
	"fmt"

	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
	"sentomist/internal/randx"
	"sentomist/internal/trace"
)

// Ground-truth symptom oracles for the case studies and the seeded-bug
// corpus (internal/bench), used by the experiments to verify that
// top-ranked intervals really contain the bug (the automated stand-in for
// the paper's manual confirmation step).
//
// Oracles are trace predicates over intervals. They return an error — not
// "no symptom" — when the question itself is malformed: the run has no
// trace or binary for the interval's node, or the binary lacks the label
// the oracle keys on. A typo'd label that silently read as symptom-absent
// would quietly zero out every quality metric built on top.

// CaseISymptom reports whether iv (an ADC interval of the Case-I sensor)
// shows the Figure-2 race interleaving: another ADC interrupt between the
// post of the send task and its run. In the buggy variant this interleaving
// always pollutes the outgoing packet; in the fixed variant it is benign.
func CaseISymptom(run *Run, iv lifecycle.Interval) (bool, error) {
	nt := run.Trace.Node(iv.Node)
	if nt == nil {
		return false, fmt.Errorf("apps: oracle: run has no trace for node %d", iv.Node)
	}
	return PollutionSymptom(nt, iv), nil
}

// CaseIISymptom reports whether iv (a packet-arrival interval of the
// Case-II relay) took the active-drop path.
func CaseIISymptom(run *Run, iv lifecycle.Interval) (bool, error) {
	return IntervalExecutedLabel(run, iv, "fwd_drop")
}

// CaseIIITrigger reports whether iv (a report-timer interval of a Case-III
// source) is the FAIL-trigger instance — the unhandled send failure.
func CaseIIITrigger(run *Run, iv lifecycle.Interval) (bool, error) {
	return IntervalExecutedLabel(run, iv, "cst_fail")
}

// CaseIIISymptom reports whether iv shows any symptom of the Case-III bug:
// either the FAIL trigger itself or a post-hang skip (the report path
// finding the protocol busy flag permanently set).
func CaseIIISymptom(run *Run, iv lifecycle.Interval) (bool, error) {
	return HangSymptom(run, iv, dev.IRQTimer0, "cst_fail", "cst_skip")
}

// HangSymptom is the generic oracle for unhandled-failure hangs (Case III,
// bench's splash-root-hang): iv is symptomatic when it is an irq interval
// that either executed failLabel itself (the trigger) or executed
// skipLabel with a FAIL strictly earlier in the node's trace — a skip
// before any FAIL is the protocol legitimately finding itself busy, not a
// hang. "Strictly earlier" means markers before iv's start marker: the
// delta recorded at the start marker itself ends exactly at the interval's
// entry, so a FAIL landing there is concurrent with the interval's start
// at trace resolution and cannot prove the skip happened post-hang.
func HangSymptom(run *Run, iv lifecycle.Interval, irq int, failLabel, skipLabel string) (bool, error) {
	if iv.IRQ != irq {
		return false, nil
	}
	// Resolve both labels before any verdict: a typo'd skip label must
	// error on trigger intervals too, not only when a skip is seen.
	failPC, nt, err := oracleLabelPC(run, iv.Node, failLabel)
	if err != nil {
		return false, err
	}
	skipPC, _, err := oracleLabelPC(run, iv.Node, skipLabel)
	if err != nil {
		return false, err
	}
	if IntervalHasPC(nt, iv, failPC) {
		return true, nil
	}
	if !IntervalHasPC(nt, iv, skipPC) {
		return false, nil
	}
	first := run.FirstMarkerWithPC(iv.Node, failPC)
	return first >= 0 && first < iv.StartMarker, nil
}

// IntervalExecutedLabel reports whether iv's window executed the labeled
// instruction at least once. A run with no binary or trace for iv's node,
// or a binary without the label, is an error.
func IntervalExecutedLabel(run *Run, iv lifecycle.Interval, label string) (bool, error) {
	pc, nt, err := oracleLabelPC(run, iv.Node, label)
	if err != nil {
		return false, err
	}
	return IntervalHasPC(nt, iv, pc), nil
}

// oracleLabelPC resolves a label to its PC and the node's trace, erroring
// on every way the lookup can silently lie.
func oracleLabelPC(run *Run, node int, label string) (uint16, *trace.NodeTrace, error) {
	prog := run.Program(node)
	if prog == nil {
		return 0, nil, fmt.Errorf("apps: oracle: run has no program for node %d", node)
	}
	pc, err := LabelPC(prog, label)
	if err != nil {
		return 0, nil, err
	}
	nt := run.Trace.Node(node)
	if nt == nil {
		return 0, nil, fmt.Errorf("apps: oracle: run has no trace for node %d", node)
	}
	return pc, nt, nil
}

// nodeSensor builds the walk sensor the builder attaches to node id's ADC;
// SensorReadings replays it.
func nodeSensor(rng *randx.RNG, id int) *dev.WalkSensor {
	return dev.NewWalkSensor(rng.Split(uint64(id)+sensorSplitKey), 100, 3, 20, 220)
}

// SensorReadings replays the first n ADC readings of node id in a run
// seeded with seed, without re-running the simulation: the builder derives
// the sensor's stream from (seed, id) alone, after splitting off the
// network's stream.
func SensorReadings(seed uint64, id, n int) []uint8 {
	rng := randx.New(seed)
	_ = rng.Split(netSplitKey)
	s := nodeSensor(rng, id)
	out := make([]uint8, n)
	for i := range out {
		out[i] = s.Sample(0)
	}
	return out
}

// PollutedDeliveries is Case I's delivered-data integrity check. The
// Figure-2 interleaving that CaseISymptom flags persists — benignly — in
// the fixed firmware, so the fixed side of the buggy/fixed contract cannot
// be "no symptomatic interval"; it is judged where the bug actually bites:
// every packet the sink receives must be three consecutive sensor
// readings. Returns (polluted, total) over the run's sink deliveries.
func PollutedDeliveries(run *Run, seed uint64) (polluted, total int) {
	readings := SensorReadings(seed, OscSensorID, 2000)
	for _, d := range run.Net.Deliveries() {
		if d.Dst != OscSinkID {
			continue
		}
		total++
		if !alignedTriple(readings, d.Payload) {
			polluted++
		}
	}
	return polluted, total
}

// alignedTriple reports whether payload equals readings[3k:3k+3] for some k
// — the shape of an unpolluted Case-I packet.
func alignedTriple(readings []uint8, payload []byte) bool {
	if len(payload) != 3 {
		return false
	}
	for k := 0; k+3 <= len(readings); k += 3 {
		if readings[k] == payload[0] && readings[k+1] == payload[1] && readings[k+2] == payload[2] {
			return true
		}
	}
	return false
}

// firstPCKey indexes Run.firstPC.
type firstPCKey struct {
	node int
	pc   uint16
}

// FirstMarkerWithPC returns the index of the first marker of node's trace
// whose delta window executed pc at least once, or -1 when the node never
// executed it (or the run has no trace for the node). Results are memoized
// per (node, pc): the hang oracles ask this once per interval, and a fresh
// prefix scan per ask would be O(markers²) over a run.
func (r *Run) FirstMarkerWithPC(node int, pc uint16) int {
	key := firstPCKey{node: node, pc: pc}
	r.firstPCMu.Lock()
	defer r.firstPCMu.Unlock()
	if v, ok := r.firstPC[key]; ok {
		return v
	}
	first := -1
	if nt := r.Trace.Node(node); nt != nil {
	scan:
		for m := range nt.Markers {
			for _, d := range nt.Markers[m].Deltas {
				if d.PC == pc && d.Count > 0 {
					first = m
					break scan
				}
			}
		}
	}
	if r.firstPC == nil {
		r.firstPC = make(map[firstPCKey]int)
	}
	r.firstPC[key] = first
	return first
}

package synth

import (
	"bytes"
	"fmt"
	"testing"

	"sentomist/internal/apps"
)

// traceBytes runs a built scenario for seconds, on the reference engine
// when reference is set, and returns the serialized trace.
func traceBytes(t testing.TB, s *apps.Scenario, reference bool, seconds float64) []byte {
	t.Helper()
	s.SetReference(reference)
	r, err := s.Run(seconds)
	if err != nil {
		t.Fatalf("run (reference=%v): %v", reference, err)
	}
	var b bytes.Buffer
	if err := r.Trace.WriteBinary(&b); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.Bytes()
}

// multihopTrace runs the benchmark scenario and returns the serialized
// trace.
func multihopTrace(t testing.TB, nodes int, reference bool, seconds float64) []byte {
	t.Helper()
	s, err := BuildMultihop(MultihopConfig{Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatalf("multihop(nodes=%d): %v", nodes, err)
	}
	return traceBytes(t, s, reference, seconds)
}

// generatedTrace runs Generate's random scenario and returns the serialized
// trace.
func generatedTrace(t testing.TB, cfg Config, reference bool) []byte {
	t.Helper()
	s, err := Build(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	return traceBytes(t, s, reference, cfg.Seconds)
}

// TestMultihopDeliversAcrossHops: the benchmark scenario must actually
// exercise multi-hop radio traffic — packets originated at the head of the
// chain reach nodes several hops away — and must engage the scheduler's
// conservative sections.
func TestMultihopDeliversAcrossHops(t *testing.T) {
	r, err := Multihop(MultihopConfig{Nodes: 12, Seconds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Net.Deliveries()) == 0 {
		t.Fatal("no radio deliveries; benchmark scenario is not exercising the medium")
	}
	sinkRx, err := r.RAM(11, "rxn")
	if err != nil {
		t.Fatal(err)
	}
	if sinkRx == 0 {
		t.Fatal("sink received nothing; traffic is not traversing the chain")
	}
	if r.Stats.ParallelSections == 0 {
		t.Fatal("no sections ran; the scenario never left lockstep")
	}
	if r.Stats.StagedEvents == 0 {
		t.Fatal("no staged medium events; sections never overlapped radio submits")
	}
}

// TestMultihopMatchesReference: the benchmark scenario's trace under the
// default engine (batched nodes, conservative sections) must be
// byte-identical to the single-step, fixed-quantum reference engine across
// chain lengths.
func TestMultihopMatchesReference(t *testing.T) {
	for _, nodes := range []int{8, 12, 16} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			seconds := 1.0
			if testing.Short() {
				seconds = 0.3
			}
			ref := multihopTrace(t, nodes, true, seconds)
			if got := multihopTrace(t, nodes, false, seconds); !bytes.Equal(ref, got) {
				t.Errorf("trace differs from the reference engine (%d vs %d bytes)", len(got), len(ref))
			}
		})
	}
}

// TestRandomTopologiesMatchReference is the deterministic many-node
// differential sweep: random generated scenarios (random topologies,
// fuzzers, radio beacons) must produce byte-identical traces on the default
// engine and the reference engine. FuzzParallelTrace extends the same check
// to fuzzed inputs.
func TestRandomTopologiesMatchReference(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := Config{Seed: uint64(seed), ExactNodes: 8, Seconds: 0.5}
		ref := generatedTrace(t, cfg, true)
		if got := generatedTrace(t, cfg, false); !bytes.Equal(ref, got) {
			t.Errorf("seed %d: trace differs from the reference engine (%d vs %d bytes)",
				seed, len(got), len(ref))
		}
	}
}

// FuzzParallelTrace fuzzes the section scheduler's equivalence gate over
// many-node topologies: for any generation seed and node count, the
// serialized trace of the default engine must be byte-identical to the
// reference engine's run of the same scenario.
func FuzzParallelTrace(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(7), uint8(12))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(1234), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, nodes uint8) {
		n := int(nodes%16) + 2
		cfg := Config{Seed: seed, ExactNodes: n, Seconds: 0.3}
		ref := generatedTrace(t, cfg, true)
		if got := generatedTrace(t, cfg, false); !bytes.Equal(ref, got) {
			t.Fatalf("seed %d nodes %d: trace differs from the reference engine (%d vs %d bytes)",
				seed, n, len(got), len(ref))
		}
	})
}

// BenchmarkRecordMultihop measures the record phase of the 12-node
// multi-hop benchmark scenario. b.ReportMetric publishes the
// simulated-cycles-per-second rate so runs on different hardware compare.
func BenchmarkRecordMultihop(b *testing.B) {
	const seconds = 2.0
	for i := 0; i < b.N; i++ {
		r, err := Multihop(MultihopConfig{Nodes: 12, Seconds: seconds, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
	b.ReportMetric(seconds*1e6*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
}

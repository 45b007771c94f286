package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summaries must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		hasTP bool
	}{
		{n: 9},                               // too few for any tail
		{n: 99},                              // p90 would leave 9 beyond
		{n: 100, p: 90, v: 90, hasTP: true},  // exactly 10 beyond p90
		{n: 199, p: 90, v: 180, hasTP: true}, // p95 would leave 9
		{n: 200, p: 95, v: 190, hasTP: true},
		{n: 1000, p: 99, v: 990, hasTP: true},
		{n: 10000, p: 99.9, v: 9990, hasTP: true},
	} {
		s := summarize(seq(tc.n), "s")
		if s.N != tc.n {
			t.Errorf("n=%d: sample count %d", tc.n, s.N)
		}
		if s.Value != median(seq(tc.n)) {
			t.Errorf("n=%d: value %g is not the median", tc.n, s.Value)
		}
		if (s.TailP > 0) != tc.hasTP || s.TailP != tc.p || s.TailVal != tc.v {
			t.Errorf("n=%d: tail p%g=%g, want p%g=%g (reported %v)", tc.n, s.TailP, s.TailVal, tc.p, tc.v, tc.hasTP)
		}
		if tc.hasTP {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.TailVal {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, s.TailP)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent int, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	spans := []span{
		sp(1, 0, "bench.op", 0, 100),
		// Two overlapping children (concurrent workers): union [10, 50].
		sp(2, 1, "sim.record", 10, 40),
		sp(3, 1, "sim.record", 20, 50),
		// A nested child and grandchild.
		sp(4, 1, "core.mine", 60, 90),
		sp(5, 4, "svm.train", 70, 80),
		// A child reaching past its parent is clipped to it.
		sp(6, 4, "feature.scale", 85, 95),
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 30, 2: 30, 3: 30, 4: 30 - 10 - 5, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["sim"] != 60 || layers["core"] != 15 || layers["bench"] != 30 {
		t.Errorf("layer self times %v", layers)
	}
	if got := nameTotal(spans, "sim.record"); got != 60 {
		t.Errorf("sim.record total %d, want 60", got)
	}
}

// runTiny runs the whole driver on a self-test-sized workload and returns
// the contract line and the full output.
func runTiny(t *testing.T, workload string, trace int) (result, string) {
	t.Helper()
	var out bytes.Buffer
	o := options{
		workload: workload, seed: 3, seconds: 0.01, trace: trace,
		root: "..", work: t.TempDir(), tiny: true,
	}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line: %v", workload, err)
	}
	return res, out.String()
}

// TestSmokeWorkloads runs every workload at self-test size, untraced and
// traced. The traced run must reproduce the untraced ranking digest (the
// warm-up op's), and each run must print exactly its metric set.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				res, out := runTiny(t, w.name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 2+trace {
					t.Fatalf("trace=%d: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%d: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%d: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
					}
				}
				if trace == 0 && res.Metrics["ranking_s"].Value <= 0 {
					t.Errorf("ranking_s = %g", res.Metrics["ranking_s"].Value)
				}
				if trace == 1 && res.Metrics["share.sim"].Value <= 0 {
					t.Errorf("share.sim = %g: the record spans are missing", res.Metrics["share.sim"].Value)
				}
			}
		})
	}
}

// TestCorruptedDigestFails checks that an op whose output does not match
// the expected digest is counted as failed, and the result as incorrect.
func TestCorruptedDigestFails(t *testing.T) {
	inst, err := setupChainMine(env{tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	res, err := inst.op(scope{})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte(res.digest)
	corrupt[0] ^= 1
	var tl tally
	o := options{workload: "chain-mine", seconds: 0.01, work: t.TempDir()}
	m, err := measure(o, inst, string(corrupt), &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != tl.attempted {
		t.Fatalf("attempted %d, failed %d: every op should fail", tl.attempted, tl.failed)
	}
	if len(m.untraced) != 0 {
		t.Errorf("failed ops contributed %d timing samples", len(m.untraced))
	}
	if !tl.check(res.digest, res, nil) {
		t.Errorf("the true digest was rejected")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the driver.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, driver has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: listed %q, driver %q", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, driver reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: listed %+v, driver %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

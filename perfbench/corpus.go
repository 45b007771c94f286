package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"sentomist/internal/apps"
	"sentomist/internal/bench"
	"sentomist/internal/core"
	"sentomist/internal/lifecycle"
)

// corpus: one op is one Sentomist-bench pass, bench.EvaluateAll over the
// whole catalog. Its report must be byte-equal to BENCH_QUALITY.json. The
// corpus's scenarios carry their own canonical seeds, so its inputs do not
// depend on the seed argument.
type corpus struct {
	entries []bench.Entry
	want    string
}

func setupCorpus(e env) (instance, error) {
	baseline, err := os.ReadFile(filepath.Join(e.root, "BENCH_QUALITY.json"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &corpus{entries: bench.Catalog(), want: bytesDigest(baseline)}, nil
}

func (c *corpus) expected() string { return c.want }
func (c *corpus) close()           {}

func (c *corpus) op(sc scope) (*opResult, error) {
	res := newOpResult()
	// Time every record call from outside by wrapping the entries' runners.
	entries := make([]bench.Entry, len(c.entries))
	for i, e := range c.entries {
		runs := e.Runs
		e.Runs = func(fixed bool) ([]*apps.Run, error) {
			return res.recordCall(sc, func() ([]*apps.Run, error) { return runs(fixed) })
		}
		entries[i] = e
	}
	var rep *bench.Report
	var err error
	if sc.traced() {
		rep, err = evaluateAll(sc, entries, res.counts)
	} else {
		rep, err = bench.EvaluateAll(entries)
	}
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	res.digest = bytesDigest(append(data, '\n'))
	res.publish(time.Now())
	var rr float64
	for _, r := range rep.Entries {
		rr += r.ReciprocalRank
	}
	res.counts.add("mrr", rr/float64(len(rep.Entries)))
	return res, nil
}

// evaluateAll is bench.EvaluateAll rebuilt from public calls so that the
// traced op can time mining and the oracles separately. Its report is
// checked byte for byte against BENCH_QUALITY.json like the untraced one;
// that pins its output, not its code path (see mine).
func evaluateAll(sc scope, entries []bench.Entry, cnt *counters) (*bench.Report, error) {
	rep := &bench.Report{PrecisionKs: bench.PrecisionKs}
	for _, e := range entries {
		r, err := evaluate(sc, e, cnt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		rep.Entries = append(rep.Entries, *r)
	}
	rep.Classes = aggregateClasses(rep.Entries)
	return rep, nil
}

// evaluate mirrors bench.Evaluate.
func evaluate(sc scope, e bench.Entry, cnt *counters) (*bench.Result, error) {
	runs, err := e.Runs(false)
	if err != nil {
		return nil, err
	}
	inputs := make([]core.RunInput, len(runs))
	for i, run := range runs {
		inputs[i] = core.RunInput{Trace: run.Trace, Programs: run.Programs}
	}
	ranking, err := mine(sc, inputs, mineSpec{irq: e.IRQ, nodes: e.Nodes, labels: e.Labels}, cnt)
	if err != nil {
		return nil, err
	}
	res := &bench.Result{Name: e.Name, Class: e.Class, Samples: len(ranking.Samples)}
	verdicts := make([]bool, len(ranking.Samples))
	err = oracleCall(sc, "oracle.verdicts", cnt, func(scope) error {
		for i, s := range ranking.Samples {
			sym, err := e.Oracle.Symptom(runs[s.Run-1], s.Interval)
			if err != nil {
				return err
			}
			verdicts[i] = sym
			if sym {
				res.Symptomatic++
				if res.FirstRank == 0 {
					res.FirstRank = i + 1
				}
			}
		}
		cnt.add("oracle.calls", float64(len(ranking.Samples)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Symptomatic == 0 {
		return nil, fmt.Errorf("the oracle found no symptom")
	}
	for _, k := range bench.PrecisionKs {
		res.PrecisionAt = append(res.PrecisionAt, round6(precisionAt(verdicts, k)))
	}
	res.ReciprocalRank = round6(1 / float64(res.FirstRank))

	fixedRuns, err := e.Runs(true)
	if err != nil {
		return nil, err
	}
	err = oracleCall(sc, "oracle.fixed", cnt, func(c scope) error {
		var err error
		if e.ValidateFixed != nil {
			cnt.add("oracle.calls", 1)
			res.FixedChecked, err = e.ValidateFixed(fixedRuns)
		} else {
			res.FixedChecked, err = validateFixed(c, e, fixedRuns, cnt)
		}
		return err
	})
	return res, err
}

// oracleCall runs an oracle phase under a span and counts what it
// allocates.
func oracleCall(sc scope, name string, cnt *counters, fn func(scope) error) error {
	return sc.call(name, func(c scope) error {
		a0 := allocBytes()
		err := fn(c)
		cnt.add("oracle.alloc_bytes", allocBytes()-a0)
		return err
	})
}

// validateFixed mirrors bench's default fixed-side validation: every
// monitored interval of the fixed runs must be symptom-free, or — for
// entries whose fix removes the symptom path — the symptom label must be
// absent from the fixed binaries.
func validateFixed(sc scope, e bench.Entry, runs []*apps.Run, cnt *counters) (int, error) {
	orc := e.Oracle
	if e.FixedOracle != nil {
		orc = e.FixedOracle
	}
	judged := 0
	for ri, run := range runs {
		if e.AbsentFixedLabel != "" {
			for _, node := range e.Nodes {
				prog := run.Program(node)
				if prog == nil {
					return 0, fmt.Errorf("fixed run %d has no program for node %d", ri+1, node)
				}
				if _, err := apps.LabelPC(prog, e.AbsentFixedLabel); err == nil {
					return 0, fmt.Errorf("fixed run %d still defines %q", ri+1, e.AbsentFixedLabel)
				}
			}
		}
		var ivs []lifecycle.Interval
		if err := sc.call("lifecycle.extract", func(scope) error {
			var err error
			ivs, err = lifecycle.ExtractTrace(run.Trace)
			return err
		}); err != nil {
			return 0, err
		}
		for _, iv := range ivs {
			if iv.IRQ != e.IRQ || !iv.Complete || !monitored(e.Nodes, iv.Node) {
				continue
			}
			if e.AbsentFixedLabel == "" {
				cnt.add("oracle.calls", 1)
				sym, err := orc.Symptom(run, iv)
				if err != nil {
					return 0, err
				}
				if sym {
					return 0, fmt.Errorf("fixed run %d shows a symptom (node %d seq %d)", ri+1, iv.Node, iv.Seq)
				}
			}
			judged++
		}
	}
	if judged == 0 {
		return 0, fmt.Errorf("fixed runs produced no monitored intervals")
	}
	return judged, nil
}

func monitored(nodes []int, id int) bool {
	if len(nodes) == 0 {
		return true
	}
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

func precisionAt(verdicts []bool, k int) float64 {
	n := min(k, len(verdicts))
	if n == 0 {
		return 0
	}
	hits := 0
	for _, v := range verdicts[:n] {
		if v {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// aggregateClasses means each class's per-entry metrics, classes in
// first-appearance order, as bench.EvaluateAll does.
func aggregateClasses(entries []bench.Result) []bench.ClassResult {
	var order []string
	byClass := map[string][]bench.Result{}
	for _, r := range entries {
		if _, ok := byClass[r.Class]; !ok {
			order = append(order, r.Class)
		}
		byClass[r.Class] = append(byClass[r.Class], r)
	}
	var out []bench.ClassResult
	for _, class := range order {
		rs := byClass[class]
		c := bench.ClassResult{Class: class, Entries: len(rs), PrecisionAt: make([]float64, len(bench.PrecisionKs))}
		for _, r := range rs {
			for i := range bench.PrecisionKs {
				c.PrecisionAt[i] += r.PrecisionAt[i]
			}
			c.MRR += r.ReciprocalRank
		}
		for i := range c.PrecisionAt {
			c.PrecisionAt[i] = round6(c.PrecisionAt[i] / float64(len(rs)))
		}
		c.MRR = round6(c.MRR / float64(len(rs)))
		out = append(out, c)
	}
	return out
}

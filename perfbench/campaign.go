package main

import (
	"fmt"
	"os"
	"time"

	"sentomist/internal/apps"
	"sentomist/internal/bench"
	"sentomist/internal/campaign"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/trace"
)

// campaignOp: one op streams a Case I campaign through campaign.Mine with
// the online miner on (rank as you go), nproc run workers, and a spill
// directory. Run i uses seed inputSeed+i and sampling period
// bench.CaseIPeriods[i mod 5], 10 simulated seconds each.
type campaignOp struct {
	runs       int
	refitEvery int
	seed       uint64
	spill      string
	want       string
}

// campaignRuns is the campaign size: ~45,000 ADC intervals, with a refit
// every campaignRuns/12 runs so each op publishes twelve top-K lists.
const campaignRuns = 200

func setupCampaign(e env) (instance, error) {
	want, err := e.want("campaign")
	if err != nil {
		return nil, err
	}
	spill, err := os.MkdirTemp(e.scratch, "spill-")
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	c := &campaignOp{runs: campaignRuns, seed: e.inputSeed, spill: spill, want: want}
	if e.tiny {
		c.runs = 12
	}
	c.refitEvery = c.runs / 12
	return c, nil
}

func (c *campaignOp) expected() string { return c.want }
func (c *campaignOp) close()           { os.RemoveAll(c.spill) }

// refit is one published top-K list as the benchmark saw it.
type refit struct {
	at time.Time
	r  core.OnlineRanking
}

func (c *campaignOp) op(sc scope) (*opResult, error) {
	res := newOpResult()
	runEnds := make([]time.Time, c.runs)
	var final *core.Ranking
	err := sc.call("campaign.mine", func(cs scope) error {
		funcs := make([]campaign.RunFunc, c.runs)
		for i := range funcs {
			i := i
			funcs[i] = func(attach campaign.Attach) error {
				start := time.Now()
				run, err := apps.RunOscilloscope(apps.OscConfig{
					PeriodMS: bench.CaseIPeriods[i%len(bench.CaseIPeriods)], Seconds: 10,
					Seed:           c.seed + uint64(i),
					Stream:         map[int]trace.StreamSink{apps.OscSensorID: attach(apps.OscSensorID)},
					DiscardMarkers: true,
				})
				end := time.Now()
				if err != nil {
					return err
				}
				cs.add("sim.record", start, end)
				res.addRecord(start, end, []*apps.Run{run}, cs.traced())
				runEnds[i] = end
				run.Release()
				return nil
			}
		}
		var refits []refit
		start := time.Now()
		r, err := campaign.Mine(campaign.Config{
			IRQ:     dev.IRQADC,
			Nodes:   []int{apps.OscSensorID},
			Workers: nproc(),
			Online: &campaign.OnlineOptions{
				RefitEvery: c.refitEvery,
				TopK:       10,
				SpillDir:   c.spill,
				OnRanking: func(o *core.OnlineRanking) {
					at := time.Now()
					res.publish(at)
					refits = append(refits, refit{at: at, r: *o})
				},
			},
		}, funcs)
		end := time.Now()
		if err != nil {
			return err
		}
		final = r
		if cs.traced() {
			c.attribute(cs, res.counts, start, end, runEnds, refits)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.publish(time.Now())
	res.digest = rankingDigest(final)
	res.counts.add("svm.samples", float64(len(final.Samples)))
	res.counts.add("lifecycle.intervals", float64(len(final.Samples)+final.Excluded))
	res.counts.add("lifecycle.excluded", float64(final.Excluded))
	return res, nil
}

// attribute turns what campaign.Mine exposes — RunFunc boundaries and the
// OnRanking callbacks — into core spans and counters. The online miner
// refits on the collector goroutine as soon as the batch that triggers a
// refit is available, so refit k is taken to start when its trigger run
// and every earlier run had returned (and the previous refit had ended),
// and to end at its OnRanking callback. Finalize runs from the later of
// the last run's return and the last refit to campaign.Mine's return.
func (c *campaignOp) attribute(cs scope, cnt *counters, start, end time.Time, runEnds []time.Time, refits []refit) {
	prev := start
	var hits, misses float64
	for _, rf := range refits {
		ready := start
		for _, t := range runEnds[:min(rf.r.Batches, len(runEnds))] {
			if t.After(ready) {
				ready = t
			}
		}
		if prev.After(ready) {
			ready = prev
		}
		cs.add("core.refit", ready, rf.at)
		prev = rf.at
		cnt.add("core.refits", 1)
		cnt.add("core.refit_iters", float64(rf.r.Iters))
		cnt.add("core.warm", b2f(rf.r.Warm))
		cnt.add("core.rebuilt", b2f(rf.r.Rebuilt))
		cnt.add("core.delta", b2f(rf.r.Delta))
		hits += float64(rf.r.CacheHits)
		misses += float64(rf.r.CacheMisses)
		cnt.add("trace.blocks_decoded", float64(rf.r.BlocksDecoded))
		cnt.add("trace.blocks_skipped", float64(rf.r.BlocksSkipped))
	}
	cnt.add("core.cache_hits", hits)
	cnt.add("core.cache_misses", misses)
	// The spill store is removed at finalize, so its size is read at the
	// last published top-K, not at the end of the op.
	if n := len(refits); n > 0 {
		last := refits[n-1].r
		cnt.add("trace.spill_bytes", float64(last.SpilledBytes))
		cnt.add("trace.compactions", float64(last.Compactions))
	}
	finStart := prev
	for _, t := range runEnds {
		if t.After(finStart) {
			finStart = t
		}
	}
	cs.add("core.finalize", finStart, end)
	cnt.add("campaign.workers", float64(min(nproc(), c.runs)))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"time"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/synth"
)

// chainNodes is the chain length of both chain workloads.
const chainNodes = 16

// chain: one op records the 16-node compute-heavy multihop chain with
// nproc node-section workers, then mines the timer event (IRQ 1) on the
// monitored nodes with core.Mine.
type chain struct {
	name string
	cfg  synth.MultihopConfig
	spec mineSpec
	want string
}

// chain-record: 30 simulated seconds, mining only the middle relay, so
// the record phase dominates.
func setupChainRecord(e env) (instance, error) {
	seconds := 30.0
	if e.tiny {
		seconds = 0.5
	}
	return newChain(e, "chain-record", seconds, []int{chainNodes/2 - 1})
}

// chain-mine: 2 simulated seconds, mining all 15 relays (nodes 0-14), so
// the SVM over thousands of distinct counters dominates.
func setupChainMine(e env) (instance, error) {
	seconds := 2.0
	if e.tiny {
		seconds = 0.2
	}
	relays := make([]int, chainNodes-1)
	for i := range relays {
		relays[i] = i
	}
	return newChain(e, "chain-mine", seconds, relays)
}

func newChain(e env, name string, seconds float64, nodes []int) (instance, error) {
	want, err := e.want(name)
	if err != nil {
		return nil, err
	}
	return &chain{
		name: name,
		cfg: synth.MultihopConfig{
			Nodes: chainNodes, Seconds: seconds, Seed: e.inputSeed, NodeWorkers: nproc(),
		},
		spec: mineSpec{irq: dev.IRQTimer0, nodes: nodes, labels: core.LabelNodeSeq},
		want: want,
	}, nil
}

func (c *chain) expected() string { return c.want }
func (c *chain) close()           {}

func (c *chain) op(sc scope) (*opResult, error) {
	res := newOpResult()
	runs, err := res.recordCall(sc, func() ([]*apps.Run, error) {
		run, err := synth.Multihop(c.cfg)
		if err != nil {
			return nil, err
		}
		return []*apps.Run{run}, nil
	})
	if err != nil {
		return nil, err
	}
	inputs := []core.RunInput{{Trace: runs[0].Trace, Programs: runs[0].Programs}}
	r, err := mine(sc, inputs, c.spec, res.counts)
	if err != nil {
		return nil, err
	}
	res.publish(time.Now())
	res.digest = rankingDigest(r)
	return res, nil
}

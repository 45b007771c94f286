package svm_test

import (
	"testing"

	"sentomist/internal/svm"
	"sentomist/internal/synth"
)

// largeCampaignSize picks the benchmark problem size: the full
// campaign-scale regime (l = 10000, the acceptance bar for the memory and
// wall-time claims), or a small problem in -short mode so CI's -benchmem
// smoke stays cheap.
func largeCampaignSize(short bool) (l, dim int) {
	if short {
		return 1500, 512
	}
	return 10000, 2048
}

// BenchmarkTrainLargeCampaign measures one-class training at campaign
// scale over distinct counters (duplicate collapsing disabled, so the
// kernel matrix truly is l×l): the materialized dense Gram baseline
// against the on-demand column cache at 25% and 5% of the dense footprint.
// The cached variants train to the bit-identical model; B/op shows the
// footprint gap.
func BenchmarkTrainLargeCampaign(b *testing.B) {
	l, dim := largeCampaignSize(testing.Short())
	samples := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: l, Dim: dim, Distinct: true,
	})
	gramBytes := int64(8) * int64(l) * int64(l)
	for _, variant := range []struct {
		name string
		cfg  svm.Config
	}{
		{"dense", svm.Config{Nu: 0.05, Gram: svm.GramDense}},
		{"cached_25pct", svm.Config{Nu: 0.05, Gram: svm.GramCached, CacheBytes: gramBytes / 4}},
		{"cached_5pct", svm.Config{Nu: 0.05, Gram: svm.GramCached, CacheBytes: gramBytes / 20}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := svm.TrainSparse(samples, variant.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && m.CacheMisses > 0 {
					b.ReportMetric(float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses), "hit-rate")
					b.ReportMetric(float64(m.Iters), "iters")
				}
			}
		})
	}
}

package learnedftl

import (
	"testing"

	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// BenchmarkWarmup measures the warm-up hot path — the dominant wall-clock
// cost of a cold experiment cell. It reports simulated flash programs per
// wall-clock second (Mpg/s, the scale experiment's warm-throughput column)
// and allocations, guarding the arena-backed path: allocs/op must stay
// flat as warm-up size grows, since steady-state recording reuses its
// chunks.
func BenchmarkWarmup(b *testing.B) {
	cfg := TinyConfig()
	b.ReportAllocs()
	var progs int64
	for i := 0; i < b.N; i++ {
		f, err := New(SchemeLearnedFTL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lp := f.Config().LogicalPages()
		sim.Warmed(f, workload.Warmup(lp, 1, 128, 1), 0)
		life := f.Flash().LifetimeCounters()
		progs += life.TotalPrograms()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(progs)/1e6/secs, "Mpg/s")
	}
}

// Tracereplay: the paper's tail-latency evaluation (§IV-E, Fig. 21). It
// replays a synthetic WebSearch trace — matched to the published Table II
// characteristics — against TPFTL, LeaFTL, LearnedFTL and the ideal FTL and
// reports P99/P99.9, where sporadic double and triple reads surface.
package main

import (
	"fmt"

	"learnedftl"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

func main() {
	cfg := learnedftl.TinyConfig()
	lp := cfg.LogicalPages()
	spec := workload.WebSearch1
	fmt.Printf("trace %s: %.1fKB avg I/O, %.1f%% reads (synthetic, Table II stats)\n\n",
		spec.Name, spec.AvgKB, spec.ReadRatio*100)

	schemes := []learnedftl.Scheme{
		learnedftl.SchemeTPFTL, learnedftl.SchemeLeaFTL,
		learnedftl.SchemeLearnedFTL, learnedftl.SchemeIdeal,
	}
	for _, scheme := range schemes {
		dev, err := learnedftl.New(scheme, cfg)
		if err != nil {
			panic(err)
		}
		sim.Warmed(dev, workload.Warmup(lp, 1, 128, 1), 0)

		gens := spec.Generators(lp, 4, 0.005)
		sim.Run(dev, gens, 0)
		col := dev.Collector()
		tail := col.Percentiles(99, 99.9)
		// GC count next to the tails: foreground collections are the
		// mechanism behind the P99.9 column (each one parks the
		// triggering write for the full relocation + erase).
		fmt.Printf("%-11s mean %6.2f ms   P99 %6.2f ms   P99.9 %6.2f ms   GCs %4d (moved %d pages)\n",
			dev.Name(),
			float64(col.MeanReadLatency())/1e6,
			float64(tail[0])/1e6,
			float64(tail[1])/1e6,
			col.GCCount, col.GCPagesMoved)
	}
}

// Command perfbench is the repository's benchmark. It runs the five FTL
// schemes through one named workload on the quick device and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload randread --seed 1 --seconds 10 --trace 0
//
// The command exits non-zero when a scheme fails the output check.
// A traced run also writes its spans and per-layer histograms to
// .bench_build/spans-<workload>-seed<n>.json under the working directory.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"learnedftl"
)

// setupReps is how many times each scheme is set up in an untraced run;
// setup_s reports the median, which damps a single slow set-up.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: randread, randwrite or tenantmix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured work, in seconds of the reference container")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	b := &bench{cfg: learnedftl.QuickConfig(), wl: wl, seed: *seed,
		requests: wl.perSecond * *seconds, setupReps: setupReps}

	var res result
	var phases []phase
	if *trace == 0 {
		u, err := b.untraced()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		phases = u.phases
		res.Metrics = endToEnd(u)
	} else {
		r, err := b.traced()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, tp := range r.phases {
			phases = append(phases, tp.untraced, tp.traced)
		}
		res.Metrics = b.perLayer(r)
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
		if err := writeTrace(path, r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 1
		}
	}
	_, _, res.Attempted, res.Failed = totals(phases)
	res.Correct = res.Failed == 0

	report(b, phases, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines before the JSON: one line per
// scheme phase, any check findings, and every metric by name with unit.
func report(b *bench, phases []phase, res result) {
	fmt.Printf("workload %s seed %d: %d requests per scheme, quick device (%d logical pages, %d CMT entries)\n",
		b.wl.name, b.seed, b.requests, b.cfg.LogicalPages(), b.cfg.CMTEntries())
	for _, p := range phases {
		fmt.Printf("  %-10s %8d req %7.3f s %9.1f kreq/s  p99 %10.1f us  live-device findings %d\n",
			p.scheme, p.sim.Result.Requests, p.seconds, ratio(float64(p.sim.Result.Requests), p.seconds)/1e3,
			float64(p.sim.P99)/1e3, len(p.liveFindings))
		if len(p.liveFindings) > 0 {
			fmt.Println("    live device, before the mount:", p.liveFindings[0])
		}
		for i, v := range p.violations {
			if i == 4 {
				fmt.Printf("    ... %d more\n", len(p.violations)-i)
				break
			}
			fmt.Println("    FAILED:", v)
		}
	}
	fmt.Printf("  failed_frac %g ratio (%d of %d requests)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

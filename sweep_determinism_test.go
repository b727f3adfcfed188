package learnedftl

import (
	"reflect"
	"strings"
	"testing"
)

// sweepTestBudget is small enough that the determinism comparison runs in a
// few seconds even on one core.
func sweepTestBudget(workers int) Budget {
	return Budget{Requests: 2000, WarmExtra: 1, TraceScale: 0.002, Threads: 16, Workers: workers}
}

// TestExperimentsParallelDeterminism is the correctness bar of the sweep
// engine: running an experiment's cells across a worker pool must produce a
// table byte-identical to the serial run. fig2 (per-thread-count cells),
// fig6 (per-scheme cells with post-hoc normalization) and table2 (pure
// computation) cover the three assembly shapes; loadsweep (scheme × rate
// open-loop cells with seeded Poisson arrivals) and tenantmix (per-scheme
// cells emitting two per-tenant rows each) cover the open-loop host model.
func TestExperimentsParallelDeterminism(t *testing.T) {
	cfg := TinyConfig()
	for _, id := range []string{"fig2", "fig6", "table2", "loadsweep", "tenantmix"} {
		run := Experiments()[id]
		serial, err := run(cfg, sweepTestBudget(1))
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallel, err := run(cfg, sweepTestBudget(8))
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s diverged:\nserial:\n%s\nparallel:\n%s", id, serial, parallel)
		}
		if serial.String() != parallel.String() {
			t.Fatalf("%s rendering diverged", id)
		}
	}
}

// hostModelGolden pins experiment tables of both host models bit-for-bit
// to earlier engines, with TinyConfig and sweepTestBudget(1). The
// closed-loop strings were captured from the seed's closed-loop-only
// sim.Run (commit f06c5b0) before the event-core/open-loop refactor
// landed. If this test fails, a host-layer change moved a number — that is
// a regression, not a table to re-bless.
var hostModelGolden = map[string]string{
	"fig2": `== Fig 2: TPFTL read performance vs threads (seq uses 8-page I/O, rand 1-page) ==
threads  seqread MB/s  randread MB/s  seq CMT hit  rand CMT hit
1        329.2         49.5           87.5%        2.6%
16       2353.2        574.4          87.5%        2.7%
32       2854.5        905.4          87.5%        3.0%
64       3209.1        927.0          87.5%        3.2%
`,
	"fig6": `== Fig 6: LeaFTL vs TPFTL under FIO random reads ==
FTL     MB/s   norm vs TPFTL  single  double  triple
LeaFTL  586.5  1.01           5.2%    90.8%   4.0%
TPFTL   583.0  1.00           2.2%    97.8%   0.0%
`,
	// The GC tables below were captured from commit 834c5bf, before garbage
	// collection was extracted into internal/gc: with the default greedy
	// policy and foreground-only triggering, the pluggable subsystem must
	// reproduce the hard-coded collector bit-for-bit.
	"fig16": `== Fig 16: GC activity under FIO writes (count; mean GCs per simulated second) ==
FTL         rand GCs  rand GC/s  seq GCs  seq GC/s
DFTL        75        121.52     756      147.90
TPFTL       108       112.81     614      121.80
LeaFTL      77        136.09     626      184.13
LearnedFTL  0         0.00       10       10.88
ideal       69        475.08     382      1074.24
`,
	"fig17": `== Fig 17: sorting+training share of LearnedFTL GC time (paper: <= 3.2%) ==
randwrite requests  GC busy  sort+train  share
1000                0.00ms   0.00ms      0.00%
2000                0.00ms   0.00ms      0.00%
4000                86.64ms  2.80ms      3.23%
`,
	"fig21": `== Fig 21: P99 / P99.9 tail latency under real-world traces ==
trace       TPFTL p99  LeaFTL p99  LearnedFTL p99  ideal p99  TPFTL p999  LeaFTL p999  LearnedFTL p999  ideal p999
WebSearch1  0.24ms     0.16ms      0.12ms          0.20ms     0.36ms      0.20ms       0.32ms           0.48ms
WebSearch2  0.20ms     0.20ms      0.12ms          0.12ms     0.40ms      0.36ms       0.32ms           0.28ms
WebSearch3  0.24ms     0.20ms      0.16ms          0.08ms     0.40ms      0.24ms       0.32ms           0.16ms
Systor17    42.76ms    0.16ms      0.68ms          24.28ms    74.56ms     512.80ms     79.48ms          57.88ms
`,
	// The open-loop tables below were captured from commit d32279d, the
	// last tree with a separate closed-loop engine body and an open loop
	// that fetched each stream's next request ahead of issuing it.
	"tenantmix": `== Tenant mix: WebSearch reads + Systor writes sharing one device (per-tenant open-loop latency) ==
FTL         tenant      offered IOPS  requests  mean      p99       p99.9     wait
DFTL        WebSearch1  20108         1000      128.76ms  468.04ms  470.27ms  97.2%
DFTL        Systor17    8618          1000      140.36ms  402.11ms  421.04ms  97.3%
TPFTL       WebSearch1  20108         1000      225.67ms  611.68ms  613.72ms  98.0%
TPFTL       Systor17    8618          1000      233.54ms  580.45ms  585.22ms  98.0%
LeaFTL      WebSearch1  20108         1000      66.8µs    200.7µs   317.4µs   10.5%
LeaFTL      Systor17    8618          1000      33.24ms   493.41ms  496.10ms  89.5%
LearnedFTL  WebSearch1  20108         1000      82.4µs    560.0µs   764.9µs   18.3%
LearnedFTL  Systor17    8618          1000      166.9µs   730.8µs   1.08ms    16.0%
ideal       WebSearch1  20108         1000      9.85ms    126.65ms  147.62ms  92.3%
ideal       Systor17    8618          1000      45.94ms   134.39ms  137.66ms  97.1%
`,
	"gclat": `== GC latency: open-loop randwrite tails, foreground vs background collection ==
FTL         gc mode     offered IOPS  achieved IOPS  mean      p99       p99.9     wait   GCs  bg GCs
DFTL        foreground  1493          1307           8.02ms    61.80ms   81.86ms   63.4%  83   0
DFTL        background  1493          1320           1.23ms    11.38ms   13.55ms   23.0%  145  145
TPFTL       foreground  1022          904            9.41ms    97.72ms   119.53ms  64.3%  91   0
TPFTL       background  1022          904            1.45ms    14.36ms   19.16ms   21.8%  195  177
LeaFTL      foreground  834           738            0.0µs     0.0µs     0.0µs     0.0%   0    0
LeaFTL      background  834           738            0.0µs     0.0µs     0.0µs     0.0%   356  356
LearnedFTL  foreground  21343         12663          29.74ms   73.12ms   74.59ms   96.4%  1    0
LearnedFTL  background  21343         12663          29.74ms   73.12ms   74.59ms   96.4%  1    0
ideal       foreground  3979          3519           1.17ms    28.11ms   39.72ms   65.1%  45   0
ideal       background  3979          3519           206.1µs   365.0µs   474.6µs   3.0%   70   70
`,
}

// trimTrailing strips the column padding Table.String appends to every
// line, so the golden strings can live in source without trailing
// whitespace. Cell contents are compared exactly.
func trimTrailing(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

func TestHostModelTablesMatchGolden(t *testing.T) {
	cfg := TinyConfig()
	for id, want := range hostModelGolden {
		tab, err := Experiments()[id](cfg, sweepTestBudget(1))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := trimTrailing(tab.String()); got != want {
			t.Fatalf("%s diverged from its golden table:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// TestLoadSweepRepeatable: the open-loop ladder must be byte-identical
// across repeated runs (seeded arrivals, hermetic cells) and must actually
// show the hockey stick — queue-wait share rising monotonically enough to
// reach domination on the last rung.
func TestLoadSweepRepeatable(t *testing.T) {
	cfg := TinyConfig()
	a, err := LoadSweep(cfg, sweepTestBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadSweep(cfg, sweepTestBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("loadsweep not reproducible:\n%s\nvs\n%s", a, b)
	}
	if len(a.Rows) != len(Schemes())*8 {
		t.Fatalf("loadsweep rows = %d, want %d", len(a.Rows), len(Schemes())*8)
	}
}

// TestOpenLoopBudgetValidation: a typo'd arrival process or an
// out-of-range tenant share must error rather than silently running with
// defaults, and "unbounded" — valid for the engine — is rejected by the
// experiments because it voids the offered-IOPS axis.
func TestOpenLoopBudgetValidation(t *testing.T) {
	b := sweepTestBudget(1)
	b.Arrival = "possion"
	if _, err := LoadSweep(TinyConfig(), b); err == nil {
		t.Fatal("typo'd arrival accepted")
	}
	b.Arrival = "unbounded"
	if _, err := TenantMixExp(TinyConfig(), b); err == nil {
		t.Fatal("unbounded arrival accepted by tenantmix")
	}
	b.Arrival = ""
	b.ReadTenantShare = 1.5
	if _, err := TenantMixExp(TinyConfig(), b); err == nil {
		t.Fatal("out-of-range tenant share accepted")
	}
}

// TestRunExperimentsOrderAndErrors covers the api.go sweep entry point.
func TestRunExperimentsOrderAndErrors(t *testing.T) {
	cfg := TinyConfig()
	res, err := RunExperiments([]string{"table2", "fig15"}, cfg, sweepTestBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Experiment != "table2" || res[1].Experiment != "fig15" {
		t.Fatalf("results out of order: %+v", res)
	}
	for _, r := range res {
		if r.Seconds < 0 || len(r.Table.Rows) == 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
	}
	if _, err := RunExperiments([]string{"nope"}, cfg, sweepTestBudget(1)); err == nil {
		t.Fatal("unknown id did not error")
	}
}

// recordsBudget is the smallest budget that still drives latbreak's and
// the fleet experiment's cells end to end, so the record test below stays
// quick under the race detector.
func recordsBudget(workers int) Budget {
	return Budget{Requests: 400, WarmExtra: 0, Threads: 8, Workers: workers,
		FleetDevices: 2, FleetPlacement: "striping,replicate"}
}

// TestRunExperimentsRecordsDeterministic: the per-cell records latbreak and
// the fleet experiment return beside their rows must reach BenchResult
// intact and in cell order at any worker count. CI runs it under -race, so
// it also covers cell results crossing the root runner's goroutines.
func TestRunExperimentsRecordsDeterministic(t *testing.T) {
	cfg := TinyConfig()
	ids := []string{"latbreak", "fleet"}
	serial, err := RunExperiments(ids, cfg, recordsBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunExperiments(ids, cfg, recordsBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(serial[0].Obs); n != 2*len(Schemes()) {
		t.Fatalf("latbreak records = %d, want %d", n, 2*len(Schemes()))
	}
	if n := len(serial[1].Fleet); n != 4 {
		t.Fatalf("fleet records = %d, want 4 (2 policies x 2 scenarios)", n)
	}
	for i, id := range ids {
		s, p := serial[i], parallel[i]
		if !reflect.DeepEqual(s.Table, p.Table) {
			t.Errorf("%s table diverged:\nserial:\n%s\nparallel:\n%s", id, s.Table, p.Table)
		}
		if !reflect.DeepEqual(s.Obs, p.Obs) {
			t.Errorf("%s obs records diverged", id)
		}
		if !reflect.DeepEqual(s.Fleet, p.Fleet) {
			t.Errorf("%s fleet records diverged", id)
		}
	}
}

// TestRunExperimentsValidatesKnobsFirst: a typo'd list or enum knob fails
// the whole call before any experiment cell runs, not when the experiment
// that reads the knob starts.
func TestRunExperimentsValidatesKnobsFirst(t *testing.T) {
	typos := []func(*Budget){
		func(b *Budget) { b.FleetPlacement = "strping" },
		func(b *Budget) { b.FaultSchemes = "dftl,ideel" },
		func(b *Budget) { b.GCPolicies = "greedy," },
		func(b *Budget) { b.Arrival = "possion" },
		func(b *Budget) { b.ReadTenantShare = 1.5 },
	}
	for i, typo := range typos {
		b := sweepTestBudget(1)
		typo(&b)
		cells := 0
		b.Progress = func(int, int) { cells++ }
		res, err := RunExperiments([]string{"table2", "fig6"}, TinyConfig(), b)
		if err == nil || res != nil || cells != 0 {
			t.Errorf("typo %d: %d results, err %v, %d cells ran; want an error and nothing run", i, len(res), err, cells)
		}
	}
}

// TestThreadsZeroDoesNotPanic: a budget with Threads < 1 runs the
// closed-loop experiments on one thread instead of dividing by zero.
func TestThreadsZeroDoesNotPanic(t *testing.T) {
	cfg := TinyConfig()
	tiny := float64(cfg.Geometry.TotalBytes()) / (1 << 30)
	b := Budget{Requests: 200, Threads: 0, Workers: 1,
		GCPolicies: "greedy", OPRatio: cfg.OPRatio, ScaleMinGiB: tiny, ScaleMaxGiB: tiny}
	for _, id := range []string{"fig3", "fig6", "fig14", "fig16", "fig17", "gcsweep", "latbreak", "scale"} {
		tab, err := Experiments()[id](cfg, b)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
	}
}

package main

import (
	"reflect"
	"testing"
	"time"

	"learnedftl"
	"learnedftl/internal/ftl"
	"learnedftl/internal/sim"
)

// testBench is a benchmark on the tiny device with a short request stream,
// so the suite runs in seconds; the code paths are the benchmark's own.
func testBench(t *testing.T, name string, seed int64) *bench {
	t.Helper()
	wl, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{cfg: learnedftl.TinyConfig(), wl: wl, seed: seed, requests: 6000, setupReps: 1}
}

func untracedSim(t *testing.T, b *bench) ([]simValues, metrics) {
	t.Helper()
	u, err := b.untraced()
	if err != nil {
		t.Fatal(err)
	}
	var out []simValues
	for _, p := range u.phases {
		if p.failed() {
			t.Fatalf("%s failed the output check: %v", p.scheme, p.violations)
		}
		out = append(out, p.sim)
	}
	return out, endToEnd(u)
}

// simMetrics keeps the end-to-end metrics computed in simulated time.
func simMetrics(m metrics) metrics {
	out := metrics{}
	for _, n := range []string{"sim_p99_us", "sim_double_read_frac", "sim_write_amp", "verified_frac"} {
		out[n] = m[n]
	}
	return out
}

func TestSameSeedRepeatsExactly(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, am := untracedSim(t, testBench(t, wl.name, 5))
			b, bm := untracedSim(t, testBench(t, wl.name, 5))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different simulated values:\n%+v\n%+v", a, b)
			}
			if !reflect.DeepEqual(simMetrics(am), simMetrics(bm)) {
				t.Fatalf("same seed, different sim metrics: %v vs %v", am, bm)
			}
		})
	}
}

// drain returns up to n requests from a generator.
func drain(g sim.Generator, n int) []sim.Request {
	var out []sim.Request
	for len(out) < n {
		r, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestSeedChangesEveryRequestSource(t *testing.T) {
	cfg := learnedftl.TinyConfig()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, b := wl.build(cfg, 1, 6400), wl.build(cfg, 2, 6400)
			if len(a.gens) != len(b.gens) || len(a.streams) != len(b.streams) || len(a.gens)+len(a.streams) == 0 {
				t.Fatalf("source counts differ or are empty: %d/%d gens, %d/%d streams",
					len(a.gens), len(b.gens), len(a.streams), len(b.streams))
			}
			for i := range a.gens {
				if reflect.DeepEqual(drain(a.gens[i], 20), drain(b.gens[i], 20)) {
					t.Errorf("generator %d ignores the seed", i)
				}
			}
			for i := range a.streams {
				sa, sb := a.streams[i], b.streams[i]
				if sa.Seed == sb.Seed {
					t.Errorf("stream %d (%s): arrival seed ignores the workload seed", i, sa.Name)
				}
				if reflect.DeepEqual(drain(sa.Gen, 20), drain(sb.Gen, 20)) {
					t.Errorf("stream %d (%s): requests ignore the workload seed", i, sa.Name)
				}
			}
		})
	}
	x, _ := untracedSim(t, testBench(t, "tenantmix", 1))
	y, _ := untracedSim(t, testBench(t, "tenantmix", 2))
	if reflect.DeepEqual(x, y) {
		t.Fatal("seeds 1 and 2 simulate identically")
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"randwrite", "tenantmix"} {
		t.Run(name, func(t *testing.T) {
			b := testBench(t, name, 3)
			r, err := b.traced()
			if err != nil {
				t.Fatal(err)
			}
			var bggcCalls uint64
			for _, tp := range r.phases {
				if tp.traced.failed() {
					t.Fatalf("%s: %v", tp.traced.scheme, tp.traced.violations)
				}
				bggcCalls += tp.t.bggc.calls
			}
			if name == "tenantmix" && bggcCalls == 0 {
				t.Fatal("tenantmix ran without background GC calls through the traced device")
			}
			m := b.perLayer(r)
			for _, n := range []string{"sim.self_ns_per_req", "workload.next_ns", "stats.report_ms", "crash.verify_ms", "core.write_ns.p50"} {
				if m[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m[n].Value)
				}
			}
		})
	}
}

// hiddenBG exposes only ftl.FTL, as a wrapper that forgot BackgroundGC
// would.
type hiddenBG struct{ ftl.FTL }

// TestDroppedBackgroundGCIsCaught shows the traced-equals-untraced check is
// not vacuous: a device wrapper that hides BackgroundGC simulates tenantmix
// differently.
func TestDroppedBackgroundGCIsCaught(t *testing.T) {
	b := testBench(t, "tenantmix", 3)
	run := func(wrap func(learnedftl.FTL) learnedftl.FTL) (sim.Result, int64) {
		f, err := setUp(learnedftl.SchemeDFTL, b.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ld := b.wl.build(b.cfg, b.seed, b.requests)
		res := sim.RunOpenWith(wrap(f), ld.streams, sim.OpenOptions{BackgroundGC: true})
		return res, f.Collector().BGGCCount
	}
	withBG, bg := run(newTracer(0).wrapFTL)
	without, hidden := run(func(f learnedftl.FTL) learnedftl.FTL { return hiddenBG{f} })
	if bg == 0 || hidden != 0 {
		t.Fatalf("background collections: %d through the traced device, %d with BackgroundGC hidden", bg, hidden)
	}
	if withBG == without {
		t.Fatal("hiding BackgroundGC did not change the simulation")
	}
}

func TestCheckCatchesLostRequests(t *testing.T) {
	b := testBench(t, "randwrite", 1)
	f, err := setUp(learnedftl.SchemeIdeal, b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := b.measure(f, nil, nil)
	b.finish(f, &p, nil)
	if p.failed() {
		t.Fatalf("clean run failed: %v", p.violations)
	}
	if v, _, _ := check(f, p.generated+1, p.sim, nil); len(v) == 0 {
		t.Fatal("a request generated but never completed went unnoticed")
	}
}

func TestFoldPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"learnedftl/internal/mapping.(*CMT).DirtyInRange": "mapping",
		"learnedftl/internal/workload.FIO.func1":          "workload",
		"learnedftl/internal/sim.runLoop":                 "sim",
		"main.tracedGen.Next":                             "bench",
		"learnedftl/internal/persist.Snapshot":            "other",
		"runtime.mapaccess2_fast64":                       "",
		"sort.Slice":                                      "",
	} {
		if got := foldPackage(fn); got != want {
			t.Errorf("foldPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUProfileFoldsSimulatorWork(t *testing.T) {
	b := testBench(t, "randread", 1)
	f, err := setUp(learnedftl.SchemeDFTL, b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sim.Run(f, b.wl.build(b.cfg, 1, 20000).gens, 0)
	}
	cpu, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var internal int64
	for _, pkg := range []string{"sim", "workload", "stats", "nand", "mapping", "ftl", "dftl"} {
		internal += cpu[pkg]
	}
	if internal == 0 {
		t.Fatalf("no samples folded into the simulator's packages: %v", cpu)
	}
}

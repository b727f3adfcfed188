package sim

import (
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

func testConfig() ftl.Config {
	g := nand.Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
	cfg := ftl.DefaultConfig(g)
	cfg.EntriesPerTP = 32
	cfg.GroupEntries = 2
	cfg.OPRatio = 0.25
	cfg.GCLowWater = 3
	return cfg
}

// seqGen returns a generator producing n sequential single-page requests.
func seqGen(start int64, n int, write bool) Generator {
	i := 0
	return GenFunc(func() (Request, bool) {
		if i >= n {
			return Request{}, false
		}
		r := Request{Write: write, LPN: start + int64(i), Pages: 1}
		i++
		return r, true
	})
}

func TestRunIssuesAllRequests(t *testing.T) {
	f, err := ftl.NewIdeal(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := Run(f, []Generator{seqGen(0, 50, true)}, 0)
	if res.Requests != 50 {
		t.Fatalf("issued %d, want 50", res.Requests)
	}
	if f.Collector().HostWrites != 50 {
		t.Fatalf("collector writes = %d", f.Collector().HostWrites)
	}
	if res.Makespan() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestRunMaxRequestsCap(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	res := Run(f, []Generator{seqGen(0, 1000, true)}, 10)
	if res.Requests != 10 {
		t.Fatalf("issued %d, want 10", res.Requests)
	}
}

func TestRunMultiThreadParallelism(t *testing.T) {
	// 8 threads writing to different chips should run ~8x faster than one
	// thread issuing the same total work.
	cfg := testConfig()
	f1, _ := ftl.NewIdeal(cfg)
	single := Run(f1, []Generator{seqGen(0, 64, true)}, 0)

	f8, _ := ftl.NewIdeal(cfg)
	gens := make([]Generator, 8)
	for i := range gens {
		gens[i] = seqGen(int64(i*8), 8, true)
	}
	multi := Run(f8, gens, 0)
	if multi.Requests != 64 || single.Requests != 64 {
		t.Fatal("request counts differ")
	}
	speedup := float64(single.Makespan()) / float64(multi.Makespan())
	if speedup < 4 {
		t.Fatalf("8-thread speedup = %.1fx, want >= 4x", speedup)
	}
}

func TestRunReadsRecordLatency(t *testing.T) {
	cfg := testConfig()
	f, _ := ftl.NewIdeal(cfg)
	Run(f, []Generator{seqGen(0, 32, true)}, 0)
	f.Collector().Reset()
	Run(f, []Generator{seqGen(0, 32, false)}, 0)
	col := f.Collector()
	if col.HostReads != 32 {
		t.Fatalf("reads = %d", col.HostReads)
	}
	// Ideal single-thread read latency = one NAND read.
	if got := col.MeanReadLatency(); got != cfg.Timing.ReadLatency {
		t.Fatalf("mean read latency = %d, want %d", got, cfg.Timing.ReadLatency)
	}
}

func TestWarmedResetsMetrics(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Warmed(f, []Generator{seqGen(0, 40, true)}, 0)
	if f.Collector().HostWrites != 0 {
		t.Fatal("collector not reset")
	}
	cv := f.Flash().Counters()
	if cv.TotalPrograms() != 0 {
		t.Fatal("flash counters not reset")
	}
	// But device state persists: the written pages are still mapped.
	if !f.Mapped(0) || !f.Mapped(39) {
		t.Fatal("warm-up state lost")
	}
}

func TestRunDeterminism(t *testing.T) {
	mk := func() Result {
		f, _ := ftl.NewIdeal(testConfig())
		gens := make([]Generator, 4)
		for i := range gens {
			gens[i] = seqGen(int64(i*16), 16, true)
		}
		return Run(f, gens, 0)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("nondeterministic engine: %+v vs %+v", a, b)
	}
}

func TestZeroPageRequestTreatedAsOne(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	g := GenFunc(func() (Request, bool) { return Request{}, false })
	_ = g
	i := 0
	gen := GenFunc(func() (Request, bool) {
		if i > 0 {
			return Request{}, false
		}
		i++
		return Request{Write: true, LPN: 0, Pages: 0}, true
	})
	res := Run(f, []Generator{gen}, 0)
	if res.Requests != 1 || f.Collector().HostWritePages != 1 {
		t.Fatalf("zero-page request handling: %+v", res)
	}
}

// TestNonPositiveTrimDiscardsNothing is the regression test for the trim
// normalization bug: issue() used to normalize Pages <= 0 to 1 for trims
// too, so a malformed zero-page trim silently discarded one page's live
// mapping. A non-positive trim must cover nothing.
func TestNonPositiveTrimDiscardsNothing(t *testing.T) {
	for _, pages := range []int{0, -3} {
		f, err := ftl.NewIdeal(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		Run(f, []Generator{seqGen(0, 4, true)}, 0)
		reqs := []Request{{Trim: true, LPN: 1, Pages: pages}}
		i := 0
		gen := GenFunc(func() (Request, bool) {
			if i >= len(reqs) {
				return Request{}, false
			}
			r := reqs[i]
			i++
			return r, true
		})
		res := Run(f, []Generator{gen}, 0)
		if res.Requests != 1 {
			t.Fatalf("pages=%d: issued %d requests, want 1", pages, res.Requests)
		}
		for lpn := int64(0); lpn < 4; lpn++ {
			if !f.Mapped(lpn) {
				t.Fatalf("pages=%d: trim of %d pages discarded lpn %d's live mapping", pages, pages, lpn)
			}
		}
		if got := f.Collector().HostTrims; got != 0 {
			t.Fatalf("pages=%d: malformed trim was counted (%d trims)", pages, got)
		}
	}

	// A well-formed trim through the same path still discards its pages.
	f, err := ftl.NewIdeal(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	Run(f, []Generator{seqGen(0, 4, true)}, 0)
	i := 0
	gen := GenFunc(func() (Request, bool) {
		if i > 0 {
			return Request{}, false
		}
		i++
		return Request{Trim: true, LPN: 1, Pages: 2}, true
	})
	Run(f, []Generator{gen}, 0)
	if f.Mapped(1) || f.Mapped(2) {
		t.Fatal("well-formed trim left mappings live")
	}
	if f.Collector().HostTrims != 1 {
		t.Fatal("well-formed trim not counted")
	}
}

func TestRunAckedDeliversEveryAck(t *testing.T) {
	f, err := ftl.NewIdeal(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var acks int64
	var last nand.Time
	res := RunAcked(f, []Generator{seqGen(0, 60, true)}, 0, func(req Request, done nand.Time) {
		if !req.Write {
			t.Fatalf("acked a non-write: %+v", req)
		}
		if done < last {
			t.Fatalf("ack times regressed: %d after %d", done, last)
		}
		last = done
		acks++
	})
	if acks != res.Requests || acks != 60 {
		t.Fatalf("acked %d of %d issued requests, want 60", acks, res.Requests)
	}
}

// TestWarmedReturnsResult: Warmed reports the warm-up phase's own span and
// request count while still resetting all metrics.
func TestWarmedReturnsResult(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	r := Warmed(f, []Generator{seqGen(0, 300, true)}, 0)
	if r.Requests != 300 || r.Makespan() <= 0 {
		t.Fatalf("Warmed result %+v", r)
	}
	if f.Collector().HostWrites != 0 {
		t.Fatal("Warmed did not reset the collector")
	}
	if c := f.Flash().Counters(); c.TotalPrograms() != 0 {
		t.Fatal("Warmed did not reset flash counters")
	}
}

// TestRunAllocsIndependentOfThreads: a run allocates a constant number of
// objects for its scheduling state, however many threads it drives — never
// one per thread or per request.
func TestRunAllocsIndependentOfThreads(t *testing.T) {
	f, err := ftl.NewIdeal(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	Run(f, []Generator{seqGen(0, 128, true)}, 0) // map the pages read below
	allocs := func(threads int) float64 {
		gens := make([]Generator, threads)
		for i := range gens {
			lpn := int64(i)
			gens[i] = GenFunc(func() (Request, bool) {
				lpn = (lpn + 1) % 128
				return Request{LPN: lpn, Pages: 1}, true
			})
		}
		return testing.AllocsPerRun(10, func() {
			f.Collector().Reset()
			Run(f, gens, 2000)
		})
	}
	few, many := allocs(4), allocs(256)
	if many != few || few > 5 {
		t.Fatalf("allocs per run: %v at 4 threads, %v at 256; want equal and at most 5", few, many)
	}
}

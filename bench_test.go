package learnedftl

import (
	"math/rand"
	"sort"
	"testing"

	"learnedftl/internal/learned"
	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/workload"
)

// benchBudget sizes the per-figure macro benchmarks so the full -bench=.
// sweep finishes in a couple of minutes. Use cmd/ftlbench -scale quick (or
// paper) for the numbers recorded in EXPERIMENTS.md.
func benchBudget() Budget {
	return Budget{Requests: 6000, WarmExtra: 1, TraceScale: 0.004, Threads: 32}
}

// benchExperiment reruns one paper experiment per iteration and logs its
// table (visible with -v), so every figure and table of the evaluation
// section is regenerable straight from `go test -bench`.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := TinyConfig()
	bud := benchBudget()
	run := Experiments()[id]
	for i := 0; i < b.N; i++ {
		tab, err := run(cfg, bud)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// Motivation figures.

func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Evaluation figures.

func BenchmarkFig14Throughput(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig16GCFreq(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17GCOverhead(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18Ablations(b *testing.B)   { benchExperiment(b, "fig18") }
func BenchmarkFig19RocksDB(b *testing.B)     { benchExperiment(b, "fig19") }
func BenchmarkFig20Filebench(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig21TailLatency(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkFig22Energy(b *testing.B)      { benchExperiment(b, "fig22") }
func BenchmarkTable2Traces(b *testing.B)     { benchExperiment(b, "table2") }

// GC subsystem experiments.

func BenchmarkGCSweepExp(b *testing.B) { benchExperiment(b, "gcsweep") }
func BenchmarkGCLatExp(b *testing.B)   { benchExperiment(b, "gclat") }

// BenchmarkGC guards the relocation hot path of the pluggable collector:
// sustained random single-page overwrites on a warmed device, where the
// dominant cost is victim selection + relocation + erase. gc/op and
// moved/op pin the collection cadence; allocs/op guards against the
// relocation loop regressing into per-page heap traffic.
func BenchmarkGC(b *testing.B) {
	cfg := TinyConfig()
	f, err := New(SchemeIdeal, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 2, 128, 1), 0)
	rng := rand.New(rand.NewSource(9))
	now := f.Flash().MaxChipBusy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = f.WritePages(rng.Int63n(lp), 1, now)
	}
	b.StopTimer()
	col := f.Collector()
	if b.N > 1000 && col.GCCount == 0 {
		b.Fatal("no GC in benchmark window")
	}
	b.ReportMetric(float64(col.GCCount)/float64(b.N), "gc/op")
	b.ReportMetric(float64(col.GCPagesMoved)/float64(b.N), "moved/op")
}

// BenchmarkFig15Ops regenerates Fig. 15 directly: the host-CPU cost of the
// three operations LearnedFTL adds (sorting a GTD entry's LPNs, training its
// model, one prediction).

func BenchmarkFig15Sorting(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lpns := make([]int64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range lpns {
			lpns[j] = rng.Int63n(1 << 20)
		}
		b.StartTimer()
		sort.Slice(lpns, func(x, y int) bool { return lpns[x] < lpns[y] })
	}
}

func fig15TrainingData() []int64 {
	rng := rand.New(rand.NewSource(2))
	vppns := make([]int64, 512)
	for i := range vppns {
		if rng.Intn(4) == 0 {
			vppns[i] = -1
			continue
		}
		vppns[i] = int64(1<<20) + int64(i) + int64(rng.Intn(3))
	}
	return vppns
}

func BenchmarkFig15Training(b *testing.B) {
	vppns := fig15TrainingData()
	m := learned.NewInPlaceModel(512, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainFull(1<<20, vppns)
	}
}

func BenchmarkFig15Prediction(b *testing.B) {
	vppns := fig15TrainingData()
	m := learned.NewInPlaceModel(512, 8)
	m.TrainFull(1<<20, vppns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(i & 511)
	}
}

// Micro-benchmarks of the substrate primitives.

// BenchmarkVPPNTranslate measures a PPN→VPPN→PPN round trip on the paper
// geometry: one division each way plus a unit-table lookup.
func BenchmarkVPPNTranslate(b *testing.B) {
	codec := nand.NewAddrCodec(nand.PaperGeometry())
	total := int64(codec.Geometry().TotalPages())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := nand.PPN(int64(i) % total)
		if codec.ToPhysical(codec.ToVirtual(p)) != p {
			b.Fatal("bijection broken")
		}
	}
}

func BenchmarkPLRFitExact(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]learned.Point, 512)
	x := int64(0)
	for i := range pts {
		x += 1 + int64(rng.Intn(2))
		pts[i] = learned.Point{X: x, Y: x + int64(rng.Intn(2))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learned.FitExact(pts)
	}
}

func BenchmarkSegmentsFit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]learned.Point, 512)
	x, y := int64(0), int64(0)
	for i := range pts {
		x += 1 + int64(rng.Intn(2))
		y += int64(rng.Intn(3))
		pts[i] = learned.Point{X: x, Y: y}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learned.FitSegments(pts, 4, 256)
	}
}

// lsmtBatch draws k sorted, distinct LPNs in one 512-entry translation page
// and maps them to consecutive VPPNs from *next — the shape a LeaFTL flush
// or GC relocation hands the trainer — and fits LeaFTL's segments over them.
func lsmtBatch(rng *rand.Rand, k int, next *int64) []learned.Segment {
	lpns := rng.Perm(512)[:k]
	sort.Ints(lpns)
	pts := make([]learned.Point, k)
	for i, x := range lpns {
		pts[i] = learned.Point{X: int64(x), Y: *next}
		*next++
	}
	return learned.FitSegments(pts, 4, 256)
}

// BenchmarkLSMTInsert measures LeaFTL's LSMT write path at perfbench
// randwrite's shape: a 2,048-page buffer flush over the quick device's ~330
// translation pages gives each page about 6 sorted random LPNs per flush.
// Every op inserts one such batch into one page's table; every 64th op also
// inserts a 32-point GC retrain and compacts shadowed segments, as
// GCFinalize does.
func BenchmarkLSMTInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var next int64
	flush := make([][]learned.Segment, 1024)
	for i := range flush {
		flush[i] = lsmtBatch(rng, 6, &next)
	}
	gc := make([][]learned.Segment, 64)
	for i := range gc {
		gc[i] = lsmtBatch(rng, 32, &next)
	}
	lt := learned.NewLSMT()
	var sc learned.ShadowScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.Insert(flush[i%len(flush)])
		if i%64 == 63 {
			lt.Insert(gc[i/64%len(gc)])
			lt.CompactShadowed(&sc)
		}
	}
}

// BenchmarkLSMTCompact measures LeaFTL's shadow compaction at GCFinalize's
// shape, where it follows every GC retrain: each op inserts one flush
// batch (as in BenchmarkLSMTInsert), then a 32-point GC retrain, then
// compacts the page's table with the device's one scratch.
func BenchmarkLSMTCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var next int64
	flush := make([][]learned.Segment, 1024)
	for i := range flush {
		flush[i] = lsmtBatch(rng, 6, &next)
	}
	gc := make([][]learned.Segment, 1024)
	for i := range gc {
		gc[i] = lsmtBatch(rng, 32, &next)
	}
	lt := learned.NewLSMT()
	var sc learned.ShadowScratch
	for i := range flush { // reach the steady-state table first
		lt.Insert(flush[i])
		lt.Insert(gc[i])
		lt.CompactShadowed(&sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.Insert(flush[i%len(flush)])
		lt.Insert(gc[i%len(gc)])
		lt.CompactShadowed(&sc)
	}
	b.ReportMetric(float64(lt.NumLevels()), "levels")
	b.ReportMetric(float64(lt.NumSegments()), "segments")
}

// BenchmarkBuildReport measures the end-of-run summary at perfbench
// randread's shape: about a million recorded read latencies, service time
// plus a long queueing tail, from which BuildReport selects P99 and P99.9
// over one transient copy.
func BenchmarkBuildReport(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	col := stats.NewCollector()
	for i := 0; i < 1<<20; i++ {
		col.RecordRead(nand.Time(40_000+rng.ExpFloat64()*60_000), 1)
	}
	energy := nand.DefaultEnergy()
	var flash nand.OpCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := stats.BuildReport("bench", col, flash, nand.Second, 4096, energy); r.P999 < r.P99 {
			b.Fatal("P99.9 below P99")
		}
	}
}

// BenchmarkSequentialInit measures LearnedFTL's per-write model upkeep at
// randwrite's shape: one 4 KB overwrite clears the page's accuracy bit and
// installs a one-page y=x piece (§III-E1) into a 512-entry, 8-piece model,
// which prunes pieces left with no accurate bits.
func BenchmarkSequentialInit(b *testing.B) {
	const span = 512
	rng := rand.New(rand.NewSource(6))
	m := learned.NewInPlaceModel(span, learned.DefaultMaxPieces)
	vppns := make([]int64, span)
	for i := range vppns {
		vppns[i] = int64(i)
	}
	m.TrainFull(0, vppns)
	offs := make([]int, 4096)
	for i := range offs {
		offs[i] = rng.Intn(span)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := offs[i%len(offs)]
		m.Invalidate(off)
		m.SequentialInit(off, 1, int64(span+i))
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func benchLearnedRandRead(b *testing.B, opt Options) {
	cfg := TinyConfig()
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		f, err := NewLearned(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		warmDevice(f, bud)
		r := measureFIO(f, workload.RandRead, bud.Threads, 1, bud.Requests)
		if i == 0 {
			b.ReportMetric(r.ReadMBps, "MB/s")
			b.ReportMetric(r.ModelHitRatio*100, "model-hit-%")
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchLearnedRandRead(b, DefaultLearnedOptions())
}

func BenchmarkAblationNoVPPN(b *testing.B) {
	opt := DefaultLearnedOptions()
	opt.DisableVPPN = true
	benchLearnedRandRead(b, opt)
}

func BenchmarkAblationNoSeqInit(b *testing.B) {
	opt := DefaultLearnedOptions()
	opt.DisableSeqInit = true
	benchLearnedRandRead(b, opt)
}

func BenchmarkAblationNoCrossGroup(b *testing.B) {
	opt := DefaultLearnedOptions()
	opt.DisableCrossGroup = true
	benchLearnedRandRead(b, opt)
}

// Micro-benchmarks of the translation hot paths. The cache-hit paths must
// stay at 0 allocs/op — run with -benchmem or rely on ReportAllocs to keep
// the allocation trajectory visible.

func BenchmarkCMTHit(b *testing.B) {
	c := mapping.NewCMT(1024, 512)
	for i := int64(0); i < 1024; i++ {
		c.Insert(i, nand.PPN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(int64(i) & 1023); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkCMTMissEvictInsert(b *testing.B) {
	const capn = 1024
	c := mapping.NewCMT(capn, 512)
	for i := int64(0); i < capn; i++ {
		c.Insert(i, nand.PPN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := int64(capn + i)
		c.Insert(lpn, nand.PPN(lpn), i%2 == 0)
		for c.NeedsEviction() {
			if _, ok := c.EvictLRU(); !ok {
				b.Fatal("eviction failed")
			}
		}
	}
}

// BenchmarkCMTWriteBack measures TPFTL-style batched write-back at the
// quick configuration's cache shape (4,976 entries, 512-entry translation
// pages): every iteration inserts a dirty mapping, evicts the dirty LRU
// entry and cleans its translation page. Each cached mapping sits in its
// own translation page, so every eviction is dirty; the clean costs
// O(dirty entries of the page), not one probe per LPN of it.
func BenchmarkCMTWriteBack(b *testing.B) {
	const capn, tp = 4976, 512
	const pages = capn + 1
	c := mapping.NewCMT(capn, tp)
	lpnOf := func(i int) int64 { return int64(i%pages)*tp + int64(i/pages%tp) }
	writeBack := func(i int) (mapping.Entry, bool) {
		c.Insert(lpnOf(i), nand.PPN(i), true)
		e, ok := c.EvictLRU()
		c.CleanTP(int(e.LPN / tp))
		return e, ok
	}
	// Touch every page once so the per-page list heads are grown.
	for i := 0; i < capn; i++ {
		c.Insert(lpnOf(i), nand.PPN(i), true)
	}
	writeBack(capn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := pages; i < pages+b.N; i++ {
		e, ok := writeBack(i)
		if !ok || !e.Dirty {
			b.Fatalf("evicted %+v,%v, want a dirty entry", e, ok)
		}
	}
}

// BenchmarkSimRunSchedule measures the engine's per-request scheduling cost
// (min-heap pop/push over 256 closed-loop threads) against the ideal FTL,
// whose translation is a single slice load — so scheduling dominates.
func BenchmarkSimRunSchedule(b *testing.B) {
	cfg := TinyConfig()
	f, err := New(SchemeIdeal, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 0, 128, 1), 0)
	const threads = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gens := workload.FIO(workload.RandRead, lp, 1, threads, 64, int64(i))
		f.Collector().Reset()
		f.Flash().ResetCounters()
		b.StartTimer()
		if res := sim.Run(f, gens, 0); res.Requests != threads*64 {
			b.Fatalf("issued %d", res.Requests)
		}
	}
}

// BenchmarkSnapshot guards the snapshot serialization hot path: one full
// device snapshot (flash states, OOB, L2P, GTD, caches, allocator) of a
// warmed tiny device per iteration, with bytes/op reported so encoding
// regressions in either speed or size are visible.
func BenchmarkSnapshot(b *testing.B) {
	f, err := newWarmed(SchemeDFTL, TinyConfig(), benchBudget())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := SnapshotDevice(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SnapshotDevice(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore is BenchmarkSnapshot's read side: decode + rebuild of
// the same warmed device.
func BenchmarkRestore(b *testing.B) {
	f, err := newWarmed(SchemeDFTL, TinyConfig(), benchBudget())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := SnapshotDevice(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreDevice(SchemeDFTL, TinyConfig(), snap); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"learnedftl"
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
)

// readSampleEvery is the traced run's fixed 1-in-N sample of reads and
// generator calls. A time.Now pair costs about 150 ns on the reference
// container, as long as a whole ideal-FTL read, so timing every read would
// swamp randread. Writes and background GC are timed on every call: a few
// of them run a collection that costs milliseconds, and a sample would
// make their total, and with it the engine's self time, a guess.
const readSampleEvery = 16

// callTimer counts the calls across one layer boundary and times a fixed
// 1-in-every sample of them. The raw samples are the layer's histogram;
// every reported figure has the clock's own cost taken out.
type callTimer struct {
	every   uint64
	clockNS float64 // cost of one clock read, see clockCost
	calls   uint64
	samples []int64 // ns as timed, clock cost included
}

// tick counts one call and reports whether to time it.
func (c *callTimer) tick() bool {
	c.calls++
	return c.calls%c.every == 0
}

func (c *callTimer) add(d time.Duration) { c.samples = append(c.samples, int64(d)) }

// A timed interval holds about one clock read's cost, and the call that
// was timed pays for two. estimateNS removes the first and scales the
// sampled time to all calls; overheadNS is the second, which the engine's
// wall time includes.
func (c *callTimer) estimateNS() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range c.samples {
		sum += s
	}
	return (float64(sum)/float64(len(c.samples)) - c.clockNS) * float64(c.calls)
}

func (c *callTimer) overheadNS() float64 { return 2 * c.clockNS * float64(len(c.samples)) }

// quantile returns the q-quantile of the timed calls (nearest rank), less
// one clock read, or 0 when nothing was timed.
func (c *callTimer) quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	s := append([]int64(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := min(int(q*float64(len(s))), len(s)-1)
	return float64(s[i]) - c.clockNS
}

// clockCost measures one clock read as half the cheapest of several
// batches of time.Now/time.Since pairs.
func clockCost() float64 {
	const pairs = 100_000
	best := math.Inf(1)
	var sink time.Duration
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < pairs; i++ {
			sink += time.Since(time.Now())
		}
		best = min(best, float64(time.Since(start))/pairs)
	}
	if sink < 0 {
		return 0
	}
	return best / 2
}

// tracer holds one scheme's traced measurement.
type tracer struct {
	reads, writes, next, bggc callTimer
}

func newTracer(clockNS float64) *tracer {
	return &tracer{
		reads:  callTimer{every: readSampleEvery, clockNS: clockNS},
		writes: callTimer{every: 1, clockNS: clockNS},
		next:   callTimer{every: readSampleEvery, clockNS: clockNS},
		bggc:   callTimer{every: 1, clockNS: clockNS},
	}
}

type layerTimer struct {
	name string
	c    *callTimer
}

// layers lists the timed boundaries with their names.
func (t *tracer) layers() []layerTimer {
	return []layerTimer{{"read", &t.reads}, {"write", &t.writes}, {"next", &t.next}, {"bggc", &t.bggc}}
}

// tracedFTL times calls into a scheme. Embedding ftl.FTL forwards the
// untimed methods; BackgroundGC must be forwarded explicitly, or the
// open-loop engine's ftl.BackgroundCollector probe would fail and run
// tenantmix without background GC.
type tracedFTL struct {
	ftl.FTL
	bg ftl.BackgroundCollector
	t  *tracer
}

var _ ftl.BackgroundCollector = tracedFTL{}

func (t *tracer) wrapFTL(f learnedftl.FTL) learnedftl.FTL {
	bg, _ := f.(ftl.BackgroundCollector)
	return tracedFTL{FTL: f, bg: bg, t: t}
}

func (w tracedFTL) ReadPages(lpn int64, n int, now nand.Time) nand.Time {
	if !w.t.reads.tick() {
		return w.FTL.ReadPages(lpn, n, now)
	}
	start := time.Now()
	done := w.FTL.ReadPages(lpn, n, now)
	w.t.reads.add(time.Since(start))
	return done
}

func (w tracedFTL) WritePages(lpn int64, n int, now nand.Time) nand.Time {
	if !w.t.writes.tick() {
		return w.FTL.WritePages(lpn, n, now)
	}
	start := time.Now()
	done := w.FTL.WritePages(lpn, n, now)
	w.t.writes.add(time.Since(start))
	return done
}

func (w tracedFTL) BackgroundGC(start, deadline nand.Time) nand.Time {
	if w.bg == nil {
		return start
	}
	w.t.bggc.tick()
	t0 := time.Now()
	done := w.bg.BackgroundGC(start, deadline)
	w.t.bggc.add(time.Since(t0))
	return done
}

// countedGen counts the requests a generator hands out.
type countedGen struct {
	gen sim.Generator
	n   *int64
}

func (g countedGen) Next() (sim.Request, bool) {
	r, ok := g.gen.Next()
	if ok {
		*g.n++
	}
	return r, ok
}

// tracedGen is countedGen with the calls timed.
type tracedGen struct {
	countedGen
	t *callTimer
}

func (g tracedGen) Next() (sim.Request, bool) {
	if !g.t.tick() {
		return g.countedGen.Next()
	}
	start := time.Now()
	r, ok := g.countedGen.Next()
	g.t.add(time.Since(start))
	return r, ok
}

// span is one phase of the traced run; Parent is the span that caused it
// (0 for the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Scheme string  `json:"scheme,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name, scheme string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Scheme: scheme,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()})
	return len(l.spans)
}

// scope records the phases of one scheme as children of its span. A nil
// scope records nothing, so the untraced path shares the code.
type scope struct {
	log    *spanLog
	scheme string
	parent int
}

func (s *scope) record(name string, start, end time.Time) {
	if s != nil {
		s.log.add(name, s.scheme, s.parent, start, end)
	}
}

// tracedPhase pairs a scheme's traced phase with its untraced twin.
type tracedPhase struct {
	untraced, traced phase
	t                *tracer
	cpu              map[string]int64
}

type tracedRun struct {
	phases  []tracedPhase
	log     spanLog
	clockNS float64
}

// traced runs every scheme twice on identically set-up devices: once
// untraced, for the exact per-layer counters and the overhead baseline,
// and once traced. The traced twin must reproduce every simulated value.
func (b *bench) traced() (tracedRun, error) {
	r := tracedRun{log: spanLog{t0: time.Now()}, clockNS: clockCost()}
	// The root span is the run itself; per-scheme spans are appended as
	// each scheme ends, so they carry their full extent.
	root := r.log.add("workload:"+b.wl.name, "", 0, r.log.t0, r.log.t0)
	for _, s := range learnedftl.Schemes() {
		tp := tracedPhase{t: newTracer(r.clockNS)}
		f, err := setUp(s, b.cfg)
		if err != nil {
			return r, err
		}
		tp.untraced = b.measure(f, nil, nil)
		tp.untraced.scheme = s
		b.finish(f, &tp.untraced, nil)

		begin := time.Now()
		sc := &scope{log: &r.log, scheme: s.String(), parent: r.log.add("scheme", s.String(), root, begin, begin)}
		if f, err = setUp(s, b.cfg); err != nil {
			return r, err
		}
		sc.record("setup", begin, time.Now())
		prof, err := startCPUProfile()
		if err != nil {
			return r, err
		}
		tp.traced = b.measure(f, tp.t, sc)
		tp.traced.scheme = s
		if tp.cpu, err = prof.stop(); err != nil {
			return r, err
		}
		b.finish(f, &tp.traced, sc)
		r.log.spans[sc.parent-1].End = time.Since(r.log.t0).Seconds()
		if tp.traced.sim != tp.untraced.sim {
			tp.traced.violations = append(tp.traced.violations,
				fmt.Sprintf("traced run diverged from untraced run: %+v != %+v", tp.traced.sim, tp.untraced.sim))
		}
		r.phases = append(r.phases, tp)
	}
	r.log.spans[root-1].End = time.Since(r.log.t0).Seconds()
	return r, nil
}

// schemeKey names a scheme by the module that implements it.
func schemeKey(s learnedftl.Scheme) string {
	switch s {
	case learnedftl.SchemeDFTL:
		return "dftl"
	case learnedftl.SchemeTPFTL:
		return "tpftl"
	case learnedftl.SchemeLeaFTL:
		return "leaftl"
	case learnedftl.SchemeLearnedFTL:
		return "core"
	default:
		return "ftl"
	}
}

// perLayer computes the per-layer metrics of a traced run: exact counters
// from the untraced twins, host timings from the traced ones.
func (b *bench) perLayer(r tracedRun) metrics {
	m := metrics{}
	var untracedReq, tracedReq int64
	var untracedSec, tracedSec, selfNS, reportSec, verifySec float64
	next := callTimer{every: readSampleEvery, clockNS: r.clockNS}
	cpu := map[string]int64{}
	for _, tp := range r.phases {
		u, t, k := tp.untraced, tp.traced, schemeKey(tp.untraced.scheme)
		c, fl := u.sim.Measured, u.sim.Flash
		req := float64(u.sim.Result.Requests)
		untracedReq += u.sim.Result.Requests
		untracedSec += u.seconds
		tracedReq += t.sim.Result.Requests
		tracedSec += t.seconds
		selfNS += t.engineSec * 1e9
		for _, l := range tp.t.layers() {
			selfNS -= l.c.estimateNS() + l.c.overheadNS()
		}
		reportSec += t.reportSec
		verifySec += t.verifySec
		next.calls += tp.t.next.calls
		next.samples = append(next.samples, tp.t.next.samples...)
		for pkg, n := range tp.cpu {
			cpu[pkg] += n
		}

		m.add("sim.wait_share."+k, u.sim.WaitShare, "ratio")
		m.add(k+".read_ns.p50", tp.t.reads.quantile(0.50), "ns")
		m.add(k+".read_ns.p99", tp.t.reads.quantile(0.99), "ns")
		m.add(k+".write_ns.p50", tp.t.writes.quantile(0.50), "ns")
		m.add(k+".write_ns.p99", tp.t.writes.quantile(0.99), "ns")
		m.add(k+".bggc_ms", tp.t.bggc.estimateNS()/1e6, "ms")
		m.add(k+".host_kreq_s", ratio(req, u.seconds)/1e3, "kreq/s")
		m.add(k+".cmt_hit_ratio", ratio(float64(c.CMTHits), float64(c.CMTLookups)), "ratio")
		m.add(k+".trans_reads_per_read", ratio(float64(fl.Reads[nand.OpTranslation]), float64(c.HostReadPages)), "ratio")
		m.add(k+".flash_ops_per_req", ratio(float64(fl.TotalReads()+fl.TotalPrograms()+fl.Erases), req), "ratio")
		m.add(k+".write_amp", ratio(float64(fl.TotalPrograms()), float64(c.HostWritePages)), "ratio")
		m.add(k+".gc_moved_per_write", ratio(float64(c.GCPagesMoved), float64(c.HostWritePages)), "ratio")
		erased := float64(fl.Erases) * float64(b.cfg.Geometry.PagesPerBlock)
		useful := 0.0
		if erased > 0 {
			useful = 1 - float64(c.GCPagesMoved)/erased
		}
		m.add(k+".gc_useful_ratio", useful, "ratio")
		m.add(k+".gc_bg_share", ratio(float64(c.BGGCCount), float64(c.GCCount)), "ratio")
		switch tp.untraced.scheme {
		case learnedftl.SchemeLearnedFTL:
			m.add("core.model_hit_ratio", ratio(float64(c.ModelHits), float64(c.CMTLookups)), "ratio")
			m.add("core.trains_per_gc", ratio(float64(c.ModelTrainings), float64(c.GCCount)), "ratio")
		case learnedftl.SchemeLeaFTL:
			m.add("leaftl.model_hit_ratio", ratio(float64(c.ModelHits), float64(c.CMTLookups)), "ratio")
		}
	}
	m.add("sim.self_ns_per_req", ratio(selfNS, float64(tracedReq)), "ns")
	m.add("workload.next_ns", ratio(next.estimateNS(), float64(next.calls)), "ns")
	m.add("stats.report_ms", reportSec*1e3, "ms")
	m.add("crash.verify_ms", verifySec*1e3, "ms")
	untracedRate := ratio(float64(untracedReq), untracedSec) / 1e3
	tracedRate := ratio(float64(tracedReq), tracedSec) / 1e3
	m.add("trace.host_kreq_s", tracedRate, "kreq/s")
	m.add("trace.clock_ns", r.clockNS, "ns")
	m.add("trace.overhead_frac", 1-ratio(tracedRate, untracedRate), "ratio")
	var samples int64
	for _, n := range cpu {
		samples += n
	}
	for _, pkg := range cpuPackages {
		m.add("cpu."+pkg, ratio(float64(cpu[pkg]), float64(samples)), "ratio")
	}
	return m
}

// writeTrace writes the spans and the per-layer histograms to path.
func writeTrace(path string, r tracedRun) error {
	type hist struct {
		Layer   string  `json:"layer"`
		Scheme  string  `json:"scheme"`
		Calls   uint64  `json:"calls"`
		Samples int     `json:"samples"`
		P50     float64 `json:"p50_ns"`
		P90     float64 `json:"p90_ns"`
		P99     float64 `json:"p99_ns"`
		P999    float64 `json:"p999_ns"`
		Max     float64 `json:"max_ns"`
	}
	var hs []hist
	for _, tp := range r.phases {
		for _, l := range tp.t.layers() {
			hs = append(hs, hist{Layer: l.name, Scheme: tp.untraced.scheme.String(), Calls: l.c.calls,
				Samples: len(l.c.samples), P50: l.c.quantile(0.5), P90: l.c.quantile(0.9),
				P99: l.c.quantile(0.99), P999: l.c.quantile(0.999), Max: l.c.quantile(1)})
		}
	}
	data, err := json.MarshalIndent(struct {
		Spans      []span `json:"spans"`
		Histograms []hist `json:"histograms"`
	}{r.log.spans, hs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

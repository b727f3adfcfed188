package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"learnedftl"
	"learnedftl/internal/crash"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/stats"
	"learnedftl/internal/workload"
)

// bench runs one workload through the five schemes, one after another,
// each on its own freshly set-up device, in one goroutine.
type bench struct {
	cfg       learnedftl.Config
	wl        workloadSpec
	seed      int64
	requests  int // host requests per scheme
	setupReps int // set-ups per scheme; setup_s takes their median
}

// counters are the collector's exact counters at one point of a run.
type counters struct {
	HostReads, HostWrites, HostReadPages, HostWritePages int64
	CMTHits, ModelHits, CMTLookups                       int64
	ReadClasses                                          [3]int64
	GCCount, BGGCCount, GCPagesMoved                     int64
	GCBusyTime                                           nand.Time
	SortTrainOps, ModelTrainings                         int64
	DeviceFailed                                         bool
}

func countersOf(c *stats.Collector) counters {
	return counters{
		HostReads: c.HostReads, HostWrites: c.HostWrites,
		HostReadPages: c.HostReadPages, HostWritePages: c.HostWritePages,
		CMTHits: c.CMTHits, ModelHits: c.ModelHits, CMTLookups: c.CMTLookups,
		ReadClasses: c.ReadClasses,
		GCCount:     c.GCCount, BGGCCount: c.BGGCCount, GCPagesMoved: c.GCPagesMoved,
		GCBusyTime:   c.GCBusyTime,
		SortTrainOps: c.SortTrainOps, ModelTrainings: c.ModelTrainings,
		DeviceFailed: c.DeviceFailed,
	}
}

// simValues is everything a run computes in simulated time. It repeats
// exactly for a given seed, and a traced run must reproduce it.
type simValues struct {
	Result          sim.Result
	P99, P999, Mean nand.Time
	WaitShare       float64
	Measured        counters        // end of the measured phase
	Flash           nand.OpCounters // measured phase
	AfterProbe      counters        // measured phase plus read-back probe
	Lifetime        nand.OpCounters // since construction, after the probe
}

// phase is one scheme's measured phase and the checks after it.
type phase struct {
	scheme     learnedftl.Scheme
	generated  int64   // requests the generators handed out
	seconds    float64 // host time of engine run + BuildReport
	engineSec  float64
	reportSec  float64
	verifySec  float64
	sim        simValues
	violations []string
	// liveFindings are the AllocInvariants reports on the live device
	// before the mount; informational only (see README.md).
	liveFindings []string
}

func (p phase) failed() bool { return len(p.violations) > 0 }

// setUp builds a device and warms it with the repository's standard recipe
// (newWarmed without the checkpoint cache): one sequential fill plus one
// capacity of 512 KB random overwrites, then a random-read settle of twice
// the CMT's entries. Set-up seeds are fixed, so every run starts from the
// same device.
func setUp(s learnedftl.Scheme, cfg learnedftl.Config) (learnedftl.FTL, error) {
	f, err := learnedftl.New(s, cfg)
	if err != nil {
		return nil, err
	}
	lp := cfg.LogicalPages()
	sim.Warmed(f, workload.Warmup(lp, 1, 128, 1), 0)
	settle := 2 * cfg.CMTEntries()
	sim.Warmed(f, workload.FIO(workload.RandRead, lp, 1, 16, settle/16+1, 977), 0)
	return f, nil
}

// measure runs the workload on a set-up device. With tr nil it is the
// untraced measurement; otherwise the device and generators are wrapped
// and every layer boundary is timed into tr. sc records the run and report
// spans (nil records nothing).
func (b *bench) measure(f learnedftl.FTL, tr *tracer, sc *scope) phase {
	ld := b.wl.build(b.cfg, b.seed, b.requests)
	var generated int64
	target := f
	wrapGen := func(g sim.Generator) sim.Generator { return countedGen{g, &generated} }
	if tr != nil {
		target = tr.wrapFTL(f)
		wrapGen = func(g sim.Generator) sim.Generator { return tracedGen{countedGen{g, &generated}, &tr.next} }
	}
	for i := range ld.gens {
		ld.gens[i] = wrapGen(ld.gens[i])
	}
	for i := range ld.streams {
		ld.streams[i].Gen = wrapGen(ld.streams[i].Gen)
	}
	runtime.GC()

	start := time.Now()
	var res sim.Result
	if b.wl.openLoop {
		res = sim.RunOpenWith(target, ld.streams, sim.OpenOptions{BackgroundGC: true})
	} else {
		res = sim.Run(target, ld.gens, 0)
	}
	engineDone := time.Now()
	rep := stats.BuildReport(f.Name(), f.Collector(), f.Flash().Counters(),
		res.Makespan(), b.cfg.Geometry.PageSize, b.cfg.Energy)
	end := time.Now()
	sc.record("run", start, engineDone)
	sc.record("report", engineDone, end)

	return phase{
		generated: generated,
		seconds:   end.Sub(start).Seconds(),
		engineSec: engineDone.Sub(start).Seconds(),
		reportSec: end.Sub(engineDone).Seconds(),
		sim: simValues{
			Result: res, P99: rep.P99, P999: rep.P999, Mean: rep.MeanLat,
			WaitShare: rep.WaitShare,
			Measured:  countersOf(f.Collector()),
			Flash:     rep.Flash,
		},
	}
}

// finish runs the untimed tail of a phase: the read-back probe, then the
// output check.
func (b *bench) finish(f learnedftl.FTL, p *phase, sc *scope) {
	start := time.Now()
	b.probe(f)
	sc.record("probe", start, time.Now())
	p.sim.AfterProbe = countersOf(f.Collector())
	p.sim.Lifetime = f.Flash().LifetimeCounters()
	p.violations, p.liveFindings, p.verifySec = check(f, p.generated, p.sim, sc)
}

// probe reads back twice the CMT's entries at uniformly random pages with
// 16 threads, seeded from the workload seed. It gives the double-read
// fraction a base on workloads whose measured phase reads nothing.
func (b *bench) probe(f learnedftl.FTL) {
	n := 2 * b.cfg.CMTEntries()
	sim.Run(f, workload.FIO(workload.RandRead, b.cfg.LogicalPages(), 1, 16, n/16+1, b.seed+977), 0)
}

// check is the output check. Every request handed out must have completed
// and the device must not have latched a failure. Then the device is
// power-cycled, mounted from flash alone, and the mounted device is
// verified against an oracle that expects every LPN mapped (the set-up's
// sequential fill maps all of them and no workload trims). LeaFTL's
// acknowledged-but-buffered pages are exempt, as in the crash harness.
func check(f learnedftl.FTL, generated int64, v simValues, sc *scope) (violations, liveFindings []string, verifySec float64) {
	if v.Result.Requests != generated {
		violations = append(violations, fmt.Sprintf("engine completed %d of %d generated requests", v.Result.Requests, generated))
	}
	if got := v.Measured.HostReads + v.Measured.HostWrites; got != generated {
		violations = append(violations, fmt.Sprintf("collector recorded %d of %d generated requests", got, generated))
	}
	if c := f.Collector(); c.DeviceFailed {
		violations = append(violations, "device failed: "+c.FailReason)
	}
	dev, ok := f.(crash.Device)
	if !ok {
		return append(violations, f.Name()+" cannot be mounted and verified"), nil, 0
	}
	liveFindings = dev.AllocInvariants()
	var exempt map[int64]struct{}
	if vb, ok := f.(crash.VolatileBuffer); ok {
		lpns := vb.BufferedLPNs()
		exempt = make(map[int64]struct{}, len(lpns))
		for _, lpn := range lpns {
			exempt[lpn] = struct{}{}
		}
	}
	t := f.Flash().MaxChipBusy()
	f.Flash().PowerCycle(t)
	start := time.Now()
	if _, err := learnedftl.RecoverFromCrash(f); err != nil {
		return append(violations, err.Error()), liveFindings, 0
	}
	sc.record("mount", start, time.Now())
	o := crash.NewOracle()
	o.Ack(sim.Request{Write: true, LPN: 0, Pages: int(f.Config().LogicalPages())}, t)
	var out crash.Outcome
	start = time.Now()
	crash.Verify(dev, o, exempt, &out)
	end := time.Now()
	sc.record("verify", start, end)
	verifySec = end.Sub(start).Seconds()
	if out.LostAcked > 0 {
		violations = append(violations, fmt.Sprintf("%d acknowledged LPNs unmapped after mount", out.LostAcked))
	}
	return append(violations, out.Violations...), liveFindings, verifySec
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// untracedRun is the measurement behind the end-to-end metrics.
type untracedRun struct {
	phases   []phase
	setupSec float64 // sum over schemes of each scheme's median set-up
	heapMB   float64 // peak live heap
}

func (b *bench) untraced() (untracedRun, error) {
	var u untracedRun
	for _, s := range learnedftl.Schemes() {
		var f learnedftl.FTL
		times := make([]float64, 0, b.setupReps)
		for k := 0; k < b.setupReps; k++ {
			f = nil
			runtime.GC()
			start := time.Now()
			var err error
			if f, err = setUp(s, b.cfg); err != nil {
				return u, err
			}
			times = append(times, time.Since(start).Seconds())
		}
		u.setupSec += median(times)
		u.heapMB = max(u.heapMB, heapMB())
		p := b.measure(f, nil, nil)
		p.scheme = s
		u.heapMB = max(u.heapMB, heapMB())
		b.finish(f, &p, nil)
		u.phases = append(u.phases, p)
	}
	return u, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func learnedPhase(phases []phase) phase {
	for _, p := range phases {
		if p.scheme == learnedftl.SchemeLearnedFTL {
			return p
		}
	}
	return phase{}
}

// totals returns requests, measured host seconds, and attempted/failed
// request counts over a set of phases.
func totals(phases []phase) (requests int64, seconds float64, attempted, failed int64) {
	for _, p := range phases {
		requests += p.sim.Result.Requests
		seconds += p.seconds
		attempted += p.generated
		if p.failed() {
			failed += p.generated
		}
	}
	return
}

func doubleReadFrac(c counters) float64 {
	rc := c.ReadClasses
	extra := rc[stats.ReadDouble] + rc[stats.ReadTriple]
	return ratio(float64(extra), float64(rc[stats.ReadSingle]+extra))
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(u untracedRun) metrics {
	req, secs, attempted, failed := totals(u.phases)
	lf := learnedPhase(u.phases).sim
	life := lf.Lifetime
	m := metrics{}
	m.add("host_kreq_s", ratio(float64(req), secs)/1e3, "kreq/s")
	m.add("setup_s", u.setupSec, "s")
	m.add("heap_mb", u.heapMB, "MB")
	m.add("sim_p99_us", float64(lf.P99)/float64(nand.Microsecond), "us")
	m.add("sim_double_read_frac", doubleReadFrac(lf.AfterProbe), "ratio")
	m.add("sim_write_amp", ratio(float64(life.TotalPrograms()), float64(life.Programs[nand.OpHostData])), "ratio")
	m.add("verified_frac", 1-ratio(float64(failed), float64(attempted)), "ratio")
	return m
}

package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/stats"
)

// unboundedStreams wraps closed-loop generators as open-loop streams with
// back-pressure-only arrivals, the configuration that must reproduce the
// closed-loop schedule exactly.
func unboundedStreams(gens []Generator) []Stream {
	streams := make([]Stream, len(gens))
	for i, g := range gens {
		streams[i] = Stream{Name: "t", Gen: g, Kind: ArrivalUnbounded}
	}
	return streams
}

// serviceFingerprint is latencies() for a run that records no queue wait
// — a closed-loop run, or unbounded open-loop streams — whose recorded
// latencies therefore are the device-service times. It fails the test if
// any wait was recorded.
func serviceFingerprint(t *testing.T, f ftl.FTL) (reads, writes []nand.Time) {
	t.Helper()
	if col := f.Collector(); col.MeanQueueWait() != 0 || col.QueueWaitShare() != 0 {
		t.Fatalf("recorded queue wait %d (share %v), want none", col.MeanQueueWait(), col.QueueWaitShare())
	}
	return latencies(f)
}

// TestOpenUnboundedMatchesClosedLoop is the refactor-seam pin: open-loop
// streams with unbounded arrivals must schedule identically to closed-loop
// threads driving the same generators — same Result, same flash-op
// counters, same per-request device-service times.
func TestOpenUnboundedMatchesClosedLoop(t *testing.T) {
	for _, threads := range []int{1, 7, 32} {
		cfg := testConfig()
		lp := int64(cfg.LogicalPages())

		fc, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc := Run(fc, mixedGens(threads, 40, lp, 42), 0)
		readsC, writesC := serviceFingerprint(t, fc)

		fo, err := ftl.NewIdeal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ro := RunOpen(fo, unboundedStreams(mixedGens(threads, 40, lp, 42)), 0)
		readsO, writesO := serviceFingerprint(t, fo)

		if rc != ro {
			t.Fatalf("threads=%d: closed %+v != open %+v", threads, rc, ro)
		}
		if fc.Flash().Counters() != fo.Flash().Counters() {
			t.Fatalf("threads=%d: flash schedules diverged:\nclosed %+v\nopen %+v",
				threads, fc.Flash().Counters(), fo.Flash().Counters())
		}
		for i := range readsC {
			if readsC[i] != readsO[i] {
				t.Fatalf("threads=%d: read service fingerprint differs at %d: %d vs %d",
					threads, i, readsC[i], readsO[i])
			}
		}
		for i := range writesC {
			if writesC[i] != writesO[i] {
				t.Fatalf("threads=%d: write service fingerprint differs at %d: %d vs %d",
					threads, i, writesC[i], writesO[i])
			}
		}
	}
}

// TestOpenUnboundedMatchesClosedLoopWithCap checks the maxRequests cut-off
// lands on the same request boundary in both host models.
func TestOpenUnboundedMatchesClosedLoopWithCap(t *testing.T) {
	cfg := testConfig()
	lp := int64(cfg.LogicalPages())
	fc, _ := ftl.NewIdeal(cfg)
	fo, _ := ftl.NewIdeal(cfg)
	rc := Run(fc, mixedGens(16, 100, lp, 7), 333)
	ro := RunOpen(fo, unboundedStreams(mixedGens(16, 100, lp, 7)), 333)
	if rc != ro {
		t.Fatalf("capped runs diverged: closed %+v open %+v", rc, ro)
	}
}

// poissonStreams builds n single-page random-read streams at the given
// per-stream rate.
func poissonStreams(n int, lp int64, perStream int, rate float64) []Stream {
	streams := make([]Stream, n)
	for i := 0; i < n; i++ {
		streams[i] = Stream{
			Name: "rd",
			Gen:  seqGen(int64(i*perStream)%lp, perStream, false),
			Kind: ArrivalPoisson,
			Rate: rate,
			Seed: 900 + int64(i),
		}
	}
	return streams
}

// TestOpenPoissonDeterministic: identical seeds must yield bit-identical
// runs — Result and latency population.
func TestOpenPoissonDeterministic(t *testing.T) {
	mk := func() (Result, []nand.Time) {
		f, _ := ftl.NewIdeal(testConfig())
		Run(f, []Generator{seqGen(0, 64, true)}, 0) // map some pages
		f.Collector().Reset()
		res := RunOpen(f, poissonStreams(4, 64, 32, 20000), 0)
		reads, _ := latencies(f)
		reads = append(reads, f.Collector().Percentile(99.9), f.Collector().MeanQueueWait())
		return res, reads
	}
	ra, fa := mk()
	rb, fb := mk()
	if ra != rb {
		t.Fatalf("nondeterministic Poisson run: %+v vs %+v", ra, rb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("latency fingerprint differs at %d: %d vs %d", i, fa[i], fb[i])
		}
	}
}

// TestOpenLoopQueueingUnderOverload: offering far more than the device can
// serve must accumulate queue wait that dominates total latency, while an
// offered rate far below capacity sees essentially no wait.
func TestOpenLoopQueueingUnderOverload(t *testing.T) {
	cfg := testConfig()
	run := func(rate float64) *stats.Collector {
		f, _ := ftl.NewIdeal(cfg)
		Run(f, []Generator{seqGen(0, 128, true)}, 0)
		f.Collector().Reset()
		streams := []Stream{{
			Name: "rd", Gen: seqGen(0, 128, false),
			Kind: ArrivalFixed, Rate: rate,
		}}
		RunOpen(f, streams, 0)
		return f.Collector()
	}
	// One stream, 40µs reads: capacity is 25k IOPS. 1M IOPS is deep
	// overload; 1k IOPS is a nearly idle device.
	over := run(1_000_000)
	if share := over.QueueWaitShare(); share < 0.5 {
		t.Fatalf("overload wait share = %.2f, want > 0.5", share)
	}
	if over.MeanLatency() <= over.MeanReadLatency()/2 {
		t.Fatal("overload totals should be wait-dominated")
	}
	idle := run(1_000)
	if share := idle.QueueWaitShare(); share > 0.01 {
		t.Fatalf("idle wait share = %.4f, want ~0", share)
	}
}

// TestOpenLoopFixedPacing: at a low fixed rate the run's virtual span is
// set by the arrival schedule, not by device speed.
func TestOpenLoopFixedPacing(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 64, true)}, 0)
	f.Collector().Reset()
	const n, rate = 50, 10_000 // 100µs apart, 40µs service
	res := RunOpen(f, []Stream{{
		Name: "rd", Gen: seqGen(0, n, false), Kind: ArrivalFixed, Rate: rate,
	}}, 0)
	interval := nand.Time(float64(nand.Second) / rate)
	if min := nand.Time(n-1) * interval; res.Makespan() < min {
		t.Fatalf("makespan %d shorter than the arrival schedule %d", res.Makespan(), min)
	}
}

// TestOpenLoopPerStreamBuckets: per-stream tracking groups same-named
// streams into one tenant bucket and keeps distinct tenants separate.
func TestOpenLoopPerStreamBuckets(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 128, true)}, 0)
	f.Collector().Reset()
	streams := []Stream{
		{Name: "a", Gen: seqGen(0, 10, false), Kind: ArrivalUnbounded},
		{Name: "b", Gen: seqGen(16, 20, false), Kind: ArrivalUnbounded},
		{Name: "a", Gen: seqGen(32, 5, false), Kind: ArrivalUnbounded},
	}
	RunOpen(f, streams, 0)
	buckets := f.Collector().Streams()
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	if buckets[0].Name != "a" || buckets[0].Requests() != 15 {
		t.Fatalf("bucket a: %q with %d requests", buckets[0].Name, buckets[0].Requests())
	}
	if buckets[1].Name != "b" || buckets[1].Requests() != 20 {
		t.Fatalf("bucket b: %q with %d requests", buckets[1].Name, buckets[1].Requests())
	}
	if buckets[0].Percentile(100) <= 0 || buckets[1].Mean() <= 0 {
		t.Fatal("bucket latencies not recorded")
	}
}

// backwardsFTL returns completion times earlier than the issue time — the
// pathological input the engines must clamp before recording.
type backwardsFTL struct {
	cfg ftl.Config
	fl  *nand.Flash
	col *stats.Collector
}

func newBackwardsFTL(t *testing.T) *backwardsFTL {
	t.Helper()
	cfg := testConfig()
	fl, err := nand.NewFlash(cfg.Geometry, cfg.Timing)
	if err != nil {
		t.Fatal(err)
	}
	return &backwardsFTL{cfg: cfg, fl: fl, col: stats.NewCollector()}
}

func (b *backwardsFTL) Name() string                                       { return "backwards" }
func (b *backwardsFTL) ReadPages(_ int64, _ int, now nand.Time) nand.Time  { return now - 5 }
func (b *backwardsFTL) WritePages(_ int64, _ int, now nand.Time) nand.Time { return now - 7 }
func (b *backwardsFTL) TrimPages(_ int64, _ int, now nand.Time) nand.Time  { return now }
func (b *backwardsFTL) Collector() *stats.Collector                        { return b.col }
func (b *backwardsFTL) Flash() *nand.Flash                                 { return b.fl }
func (b *backwardsFTL) Config() ftl.Config                                 { return b.cfg }

// TestIssueClampsBackwardsCompletion is the regression test for the
// record-before-clamp bug: a backwards completion time must never surface
// as a negative recorded latency, in either host model.
func TestIssueClampsBackwardsCompletion(t *testing.T) {
	f := newBackwardsFTL(t)
	res := Run(f, []Generator{seqGen(0, 4, false), seqGen(0, 4, true)}, 0)
	if res.Makespan() != 0 {
		t.Fatalf("clamped run advanced time: %+v", res)
	}
	if got := f.col.ReadPercentile(100); got != 0 {
		t.Fatalf("closed-loop recorded read latency %d, want clamped 0", got)
	}
	if got := f.col.WritePercentile(100); got != 0 {
		t.Fatalf("closed-loop recorded write latency %d, want clamped 0", got)
	}

	f2 := newBackwardsFTL(t)
	RunOpen(f2, []Stream{
		{Name: "r", Gen: seqGen(0, 4, false), Kind: ArrivalFixed, Rate: 1e9},
		{Name: "w", Gen: seqGen(0, 4, true), Kind: ArrivalFixed, Rate: 1e9},
	}, 0)
	// Every request's service time is clamped to 0, so each total latency
	// is its queue wait alone and the two populations sum alike.
	if lat, wait := f2.col.MeanLatency(), f2.col.MeanQueueWait(); lat != wait {
		t.Fatalf("open-loop mean latency %d != mean wait %d, want clamped 0 service", lat, wait)
	}
	if f2.col.ReadPercentile(100) < 0 || f2.col.WritePercentile(100) < 0 {
		t.Fatal("open-loop recorded a negative total latency")
	}
}

// TestUnboundedStreamsExcludedFromWaitAccounting is the regression test
// for the open-loop wait bug: ArrivalUnbounded streams stamp every arrival
// at run start, so a mixed unbounded+rated run used to report a
// meaningless ~100% wait share for the unbounded tenant. Unbounded streams
// must contribute zero queue wait; rated streams keep theirs.
func TestUnboundedStreamsExcludedFromWaitAccounting(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 128, true)}, 0)
	f.Collector().Reset()
	streams := []Stream{
		// A long unbounded stream: device back-pressure is its only pacer.
		{Name: "batch", Gen: seqGen(0, 200, false), Kind: ArrivalUnbounded},
		// A deeply overloaded rated stream: real queue wait accumulates.
		{Name: "svc", Gen: seqGen(0, 100, false), Kind: ArrivalFixed, Rate: 1e7},
	}
	RunOpen(f, streams, 0)
	buckets := f.Collector().Streams()
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	batch, svc := buckets[0], buckets[1]
	if batch.Name != "batch" || svc.Name != "svc" {
		t.Fatalf("bucket order: %q, %q", batch.Name, svc.Name)
	}
	if w := batch.WaitShare(); w != 0 {
		t.Fatalf("unbounded tenant wait share = %.3f, want 0", w)
	}
	if mw := batch.MeanWait(); mw != 0 {
		t.Fatalf("unbounded tenant mean wait = %d, want 0", mw)
	}
	if batch.Mean() <= 0 {
		t.Fatal("unbounded tenant lost its service latency")
	}
	if w := svc.WaitShare(); w <= 0.5 {
		t.Fatalf("overloaded rated tenant wait share = %.3f, want > 0.5", w)
	}
}

// TestRateZeroStreamDegradesToUnboundedAccounting: Rate <= 0 degrades any
// arrival kind to unbounded, and the wait exclusion must follow the
// degraded kind, not the declared one.
func TestRateZeroStreamDegradesToUnboundedAccounting(t *testing.T) {
	f, _ := ftl.NewIdeal(testConfig())
	Run(f, []Generator{seqGen(0, 64, true)}, 0)
	f.Collector().Reset()
	RunOpen(f, []Stream{
		{Name: "z", Gen: seqGen(0, 50, false), Kind: ArrivalPoisson, Rate: 0},
	}, 0)
	if w := f.Collector().QueueWaitShare(); w != 0 {
		t.Fatalf("rate-0 stream accumulated wait share %.3f, want 0", w)
	}
}

// countingGen wraps g so every request it hands out is counted in *pulled.
func countingGen(g Generator, pulled *int64) Generator {
	return GenFunc(func() (Request, bool) {
		req, ok := g.Next()
		if ok {
			*pulled++
		}
		return req, ok
	})
}

// TestGeneratorPulledOnlyWhenIssued: every entry point asks its generators
// for exactly the requests it issues — none fetched ahead, none left
// pulled-but-unissued when a cap ends the run. The crash oracle's in-flight
// set depends on it: whatever a generator handed out and the engine has not
// acked is treated as in flight at a power cut.
func TestGeneratorPulledOnlyWhenIssued(t *testing.T) {
	cfg := testConfig()
	lp := int64(cfg.LogicalPages())
	const threads = 16
	streamsOf := func(kind ArrivalKind, gens []Generator) []Stream {
		streams := make([]Stream, len(gens))
		for i, g := range gens {
			streams[i] = Stream{Name: "s", Gen: g, Kind: kind, Rate: 20000, Seed: 300 + int64(i)}
		}
		return streams
	}
	runs := []struct {
		name string
		run  func(f ftl.FTL, gens []Generator, max int64) Result
	}{
		{"Run", Run},
		{"RunAcked", func(f ftl.FTL, gens []Generator, max int64) Result {
			return RunAcked(f, gens, max, func(Request, nand.Time) {})
		}},
		{"Warmed", Warmed},
		{"RunOpen/poisson", func(f ftl.FTL, gens []Generator, max int64) Result {
			return RunOpen(f, streamsOf(ArrivalPoisson, gens), max)
		}},
		{"RunOpen/fixed", func(f ftl.FTL, gens []Generator, max int64) Result {
			return RunOpen(f, streamsOf(ArrivalFixed, gens), max)
		}},
		{"RunOpen/unbounded", func(f ftl.FTL, gens []Generator, max int64) Result {
			return RunOpen(f, streamsOf(ArrivalUnbounded, gens), max)
		}},
		{"RunOpen/mixed", func(f ftl.FTL, gens []Generator, max int64) Result {
			streams := streamsOf(ArrivalPoisson, gens)
			for i := range streams {
				streams[i].Kind = ArrivalKind(i % 3)
			}
			return RunOpen(f, streams, max)
		}},
	}
	for _, r := range runs {
		for _, max := range []int64{0, 1, 333} {
			f, err := ftl.NewIdeal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var pulled int64
			gens := mixedGens(threads, 100, lp, 7)
			for i, g := range gens {
				gens[i] = countingGen(g, &pulled)
			}
			res := r.run(f, gens, max)
			if pulled != res.Requests {
				t.Errorf("%s cap %d: pulled %d requests to issue %d", r.name, max, pulled, res.Requests)
			}
			if max > 0 && res.Requests != max {
				t.Errorf("%s cap %d: issued %d", r.name, max, res.Requests)
			}
		}
	}
}

// refOlStream and refRunOpenLoop are the frozen pre-fold open-loop engine,
// kept verbatim apart from the names: each stream fetches its next request
// as soon as the previous one is issued, so it pulls one request ahead of
// the engine. runOpenLoop must reproduce its schedule, records and acks
// exactly (TestOpenLoopMatchesReferenceProperty) while pulling nothing
// ahead.
type refOlStream struct {
	gen    Generator
	kind   ArrivalKind
	meanNS float64 // mean interarrival gap in virtual ns
	rng    *rand.Rand

	start   nand.Time
	clockNS float64   // arrival offset of the fetched request, ns since start
	arrival nand.Time // arrival time of the fetched request
	req     Request   // fetched but not yet issued request
	ready   nand.Time // completion time of the stream's previous request
}

// fetch pulls the stream's next request and stamps its arrival time.
// It returns false when the generator is exhausted.
func (s *refOlStream) fetch() bool {
	req, ok := s.gen.Next()
	if !ok {
		return false
	}
	s.req = req
	s.arrival = s.start + nand.Time(math.Round(s.clockNS))
	switch s.kind {
	case ArrivalFixed:
		s.clockNS += s.meanNS
	case ArrivalPoisson:
		s.clockNS += s.rng.ExpFloat64() * s.meanNS
	}
	return true
}

// refRunOpenLoop is the frozen shared open-loop engine body (see RunOpen
// for the semantics). bg, when non-nil, is offered the idle gap before
// each service start whose target drain time precedes it.
func refRunOpenLoop(t OpenTarget, streams []Stream, maxRequests int64, bg func(start, deadline nand.Time), ack AckFunc) Result {
	start := t.Busy()
	col := t.Collector()
	names := make([]string, len(streams))
	for i, s := range streams {
		names[i] = s.Name
	}
	col.DefineStreams(names)

	states := make([]*refOlStream, len(streams))
	h := newEventHeap(0, start)
	for i, s := range streams {
		st := &refOlStream{gen: s.Gen, kind: s.Kind, start: start, ready: start}
		if s.Rate <= 0 {
			st.kind = ArrivalUnbounded
		}
		switch st.kind {
		case ArrivalFixed:
			st.meanNS = float64(nand.Second) / s.Rate
		case ArrivalPoisson:
			st.meanNS = float64(nand.Second) / s.Rate
			st.rng = rand.New(rand.NewSource(s.Seed))
		}
		states[i] = st
		if st.fetch() {
			h.push(i, max(st.arrival, st.ready))
		}
	}

	tr := col.Tracer()
	var issued int64
	end := start
	for h.len() > 0 {
		if maxRequests > 0 && issued >= maxRequests {
			break
		}
		i, now := h.pop()
		st := states[i]
		if bg != nil {
			// The target drains before the next service start: offer the
			// idle gap to its background work source (GC, rebuild). Work it
			// launches finishes inside the gap or spills into the request's
			// service time through per-chip queueing — never onto its queue
			// wait.
			if busy := t.Busy(); busy < now {
				bg(busy, now)
			}
		}
		wait := now - st.arrival
		if st.kind == ArrivalUnbounded {
			// Unbounded streams have no arrival schedule — every request
			// is nominally available at run start, so "wait" would only
			// measure run progress, and a mixed unbounded+rated run would
			// report a meaningless ~100% wait share for the unbounded
			// tenant. They are excluded from queue-wait accounting: their
			// latency is pure device service, as in the closed loop they
			// schedule identically to.
			wait = 0
		}
		if tr != nil && !st.req.Trim {
			tr.BeginReq(st.req.Write, now, wait)
		}
		done, pages := t.Issue(st.req, now)
		if st.req.Trim {
			// TrimPages counted the trim inside the FTL; metadata ops
			// join no latency population.
		} else {
			col.RecordQueued(i, st.req.Write, wait, done-now, pages)
			if tr != nil {
				tr.EndReq(done)
			}
		}
		if ack != nil {
			ack(st.req, done)
		}
		st.ready = done
		if done > end {
			end = done
		}
		issued++
		if st.fetch() {
			h.push(i, max(st.arrival, st.ready))
		}
	}
	return Result{Start: start, End: end, Requests: issued}
}

// randomMixGen returns n seeded requests: reads, writes and (every trimPct
// percent) trims of 1–4 pages.
func randomMixGen(lp int64, n, trimPct int, seed int64) Generator {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	return GenFunc(func() (Request, bool) {
		if i >= n {
			return Request{}, false
		}
		i++
		pages := 1 + rng.Intn(4)
		req := Request{LPN: rng.Int63n(lp - int64(pages) + 1), Pages: pages}
		switch r := rng.Intn(100); {
		case r < trimPct:
			req.Trim = true
		case r < 50:
			req.Write = true
		}
		return req, true
	})
}

type ackRec struct {
	req  Request
	done nand.Time
}

// TestOpenLoopMatchesReferenceProperty pins the one engine body to the
// frozen pre-fold open loop over random stream mixes: 1–9 streams of fixed,
// Poisson, unbounded and Rate-0 arrivals under shared and distinct names,
// with trims, background GC on and off, uncapped and capped. Result, ack
// sequence, service and wait accounting and every per-stream bucket must
// be identical. Pull counts are not compared: the reference pulls ahead.
func TestOpenLoopMatchesReferenceProperty(t *testing.T) {
	cfg := testConfig()
	lp := int64(cfg.LogicalPages())
	rng := rand.New(rand.NewSource(20261017))
	kinds := []ArrivalKind{ArrivalUnbounded, ArrivalFixed, ArrivalPoisson}
	names := []string{"a", "b", "c"}
	grid := []float64{1, 50, 90, 99, 100}
	for iter := 0; iter < 120; iter++ {
		n := 1 + rng.Intn(9)
		type spec struct {
			s       Stream
			per     int
			trimPct int
			seed    int64
		}
		specs := make([]spec, n)
		for i := range specs {
			sp := spec{per: 1 + rng.Intn(60), seed: rng.Int63()}
			sp.s = Stream{Name: names[rng.Intn(len(names))], Kind: kinds[rng.Intn(len(kinds))],
				Rate: 50 * math.Pow(1200, rng.Float64()), Seed: rng.Int63()}
			if rng.Intn(6) == 0 {
				sp.s.Rate = 0
			}
			if rng.Intn(3) == 0 {
				sp.trimPct = 10
			}
			specs[i] = sp
		}
		mk := func() []Stream {
			streams := make([]Stream, n)
			for i, sp := range specs {
				streams[i] = sp.s
				streams[i].Gen = randomMixGen(lp, sp.per, sp.trimPct, sp.seed)
			}
			return streams
		}
		var maxReq int64
		if rng.Intn(2) == 0 {
			maxReq = 1 + rng.Int63n(200)
		}
		bgOn := rng.Intn(2) == 0

		var refAcks, acks []ackRec
		fr := warmIdeal(t, cfg)
		var bg func(start, deadline nand.Time)
		if bgOn {
			bg = ftlTarget{fr}.BackgroundWork
		}
		rr := refRunOpenLoop(ftlTarget{fr}, mk(), maxReq, bg, func(req Request, done nand.Time) {
			refAcks = append(refAcks, ackRec{req, done})
		})
		fn := warmIdeal(t, cfg)
		rn := RunOpenWith(fn, mk(), OpenOptions{MaxRequests: maxReq, BackgroundGC: bgOn,
			AckSink: func(req Request, done nand.Time) { acks = append(acks, ackRec{req, done}) }})

		if rr != rn {
			t.Fatalf("iter %d: Result %+v, reference %+v", iter, rn, rr)
		}
		if !reflect.DeepEqual(acks, refAcks) {
			t.Fatalf("iter %d: ack sequences differ (%d vs %d acks)", iter, len(acks), len(refAcks))
		}
		rReads, rWrites := latencies(fr)
		nReads, nWrites := latencies(fn)
		if !reflect.DeepEqual(rReads, nReads) || !reflect.DeepEqual(rWrites, nWrites) {
			t.Fatalf("iter %d: latency fingerprints differ", iter)
		}
		rc, nc := fr.Collector(), fn.Collector()
		if rc.QueueWaitShare() != nc.QueueWaitShare() || rc.MeanQueueWait() != nc.MeanQueueWait() {
			t.Fatalf("iter %d: wait accounting differs", iter)
		}
		if fr.Flash().Counters() != fn.Flash().Counters() || rc.GCCount != nc.GCCount || rc.BGGCCount != nc.BGGCCount {
			t.Fatalf("iter %d: flash or GC schedule differs", iter)
		}
		rb, nb := rc.Streams(), nc.Streams()
		if len(rb) != len(nb) {
			t.Fatalf("iter %d: %d buckets, reference %d", iter, len(nb), len(rb))
		}
		for k := range rb {
			a, b := rb[k], nb[k]
			if a.Name != b.Name || a.Requests() != b.Requests() || a.Mean() != b.Mean() ||
				a.MeanWait() != b.MeanWait() || a.WaitShare() != b.WaitShare() {
				t.Fatalf("iter %d: bucket %d differs", iter, k)
			}
			for _, p := range grid {
				if a.Percentile(p) != b.Percentile(p) {
					t.Fatalf("iter %d: bucket %d p%v differs", iter, k, p)
				}
			}
		}
	}
}

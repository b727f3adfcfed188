// Package sim is the event-driven host layer of the simulator. One engine
// body (runOpenLoop, openloop.go) serves two host models:
//
//   - The closed-loop model (Run) reproduces FIO's psync engine, the way the
//     paper drives FEMU: each logical thread keeps exactly one request
//     outstanding, issuing the next one the moment the previous completes.
//     Offered load is whatever the device sustains — the saturation view.
//     Each thread runs as an open-loop stream with unbounded arrivals.
//
//   - The open-loop model (RunOpen) reproduces what a rate-controlled
//     service sees: requests arrive on their own schedule (Poisson or fixed
//     interval, deterministic given a seed) whether or not the device is
//     ready, queue when it falls behind, and decompose their latency into
//     queue wait plus device service.
//
// The entry point picks what the body records: nothing (Warmed), device
// service time (Run, RunAcked), or queue wait plus service per stream
// (RunOpen, RunOpenWith, RunOpenTarget). The body pulls a source's next
// request from its generator only when it issues it. Parallelism across
// sources emerges from per-chip scheduling inside the flash array, and all
// scheduling is deterministic.
package sim

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// Request is one host I/O in pages. Trim takes precedence over Write: a
// trim request discards the covered mappings instead of transferring data.
type Request struct {
	Write bool
	Trim  bool
	LPN   int64
	Pages int
}

// Generator produces the request stream of one thread. Next returns false
// when the thread has no more work. The engine calls Next only when it
// issues that request, in schedule order, so a generator is never asked for
// a request the run does not issue.
type Generator interface {
	Next() (Request, bool)
}

// GenFunc adapts a function to the Generator interface.
type GenFunc func() (Request, bool)

// Next implements Generator.
func (g GenFunc) Next() (Request, bool) { return g() }

// Result summarizes one engine run.
type Result struct {
	Start    nand.Time
	End      nand.Time
	Requests int64
}

// Makespan returns the virtual duration of the run.
func (r Result) Makespan() nand.Time { return r.End - r.Start }

// Run replays one generator per thread against f until all generators are
// exhausted or maxRequests have been issued (0 = unlimited). It records
// per-request latency into the FTL's collector and returns the run result.
//
// The engine is deterministic: among ready threads the lowest-indexed one
// issues first, and virtual time advances only through flash-op completion.
// Thread selection uses the shared event heap keyed by (ready time, thread
// index), so a T-thread closed loop schedules each request in O(log T)
// instead of the O(T) linear scan a naive implementation would need.
func Run(f ftl.FTL, gens []Generator, maxRequests int64) Result {
	return runClosed(f, gens, maxRequests, recClosed, nil)
}

// AckFunc receives every request the engine completed, with the completion
// time — the moment the request is acknowledged to the host. The crash
// harness records its durability oracle here: a request still in flight
// when a power cut unwinds the engine is never acked, so the oracle holds
// exactly what a host could rightfully expect after the crash.
type AckFunc func(req Request, done nand.Time)

// RunAcked is Run with an acknowledgment hook. Acks fire in issue order
// (the engine's deterministic execution order), after the FTL has fully
// processed the request.
func RunAcked(f ftl.FTL, gens []Generator, maxRequests int64, ack AckFunc) Result {
	return runClosed(f, gens, maxRequests, recClosed, ack)
}

// Warmed runs a warm-up phase and then resets all metrics so a subsequent
// measured Run starts from a steady-state device, mirroring the paper's
// "write the SSD over ~6 times" warm-up (§IV-B). It returns the warm-up
// phase's own result (virtual span, requests issued) — the collector's
// view of it is gone after the reset.
func Warmed(f ftl.FTL, warm []Generator, maxRequests int64) Result {
	r := runClosed(f, warm, maxRequests, recNone, nil)
	f.Collector().Reset()
	f.Flash().ResetCounters()
	return r
}

// recMode selects what the engine body records per request. The entry
// point chooses it; no caller can.
type recMode uint8

const (
	// recNone records nothing and leaves the tracer off: a warm-up phase,
	// whose collector is reset right after, stays off the collector
	// entirely.
	recNone recMode = iota
	// recClosed records device service time with RecordRead/RecordWrite,
	// and registers no streams.
	recClosed
	// recQueued records queue wait plus service per stream with
	// RecordQueued.
	recQueued
)

// runClosed runs closed-loop threads as unnamed unbounded-arrival streams:
// each thread's next event is its previous completion.
func runClosed(f ftl.FTL, gens []Generator, maxRequests int64, rec recMode, ack AckFunc) Result {
	streams := make([]Stream, len(gens))
	for i, g := range gens {
		streams[i].Gen = g
	}
	return runOpenLoop(ftlTarget{f}, streams, maxRequests, nil, ack, rec)
}

package sim

import (
	"learnedftl/internal/ftl"
	"learnedftl/internal/nand"
)

// This file is the event core under the one engine body (runOpenLoop in
// openloop.go): an index min-heap orders request sources by their next
// service start, and issue() executes one request against the FTL at a
// virtual timestamp. A closed-loop thread is a source whose next service
// start is its previous completion; an open-loop stream's is the later of
// its next arrival and that completion. The recording mode, chosen by the
// entry point, is the only other difference between the host models.

// issue executes one host request against f at virtual time now and returns
// the completion time plus the normalized page count. The completion is
// clamped to now *before* the caller records any latency, so a backwards
// completion time from an FTL can never surface as a negative latency (see
// TestIssueClampsBackwardsCompletion).
func issue(f ftl.FTL, req Request, now nand.Time) (done nand.Time, pages int) {
	pages = req.Pages
	switch {
	case req.Trim:
		// A non-positive page count must NOT normalize to 1 here: a
		// malformed zero-page trim would then silently discard one page's
		// live mapping. Trims cover exactly what they say or nothing.
		if pages <= 0 {
			return now, 0
		}
		done = f.TrimPages(req.LPN, pages, now)
	case req.Write:
		if pages <= 0 {
			pages = 1
		}
		done = f.WritePages(req.LPN, pages, now)
	default:
		if pages <= 0 {
			pages = 1
		}
		done = f.ReadPages(req.LPN, pages, now)
	}
	if done < now {
		done = now
	}
	return done, pages
}

// eventHeap is an index min-heap over request sources (closed-loop threads
// or open-loop streams), ordered by (event time, source index). The
// secondary index ordering is the engine's deterministic tie-break: among
// sources eventing at the same virtual time, the lowest-indexed one goes
// first.
//
// The heap is slice-backed and capacity-bounded (one slot per source), so a
// full run schedules with zero heap allocations after construction.
type eventHeap struct {
	at  []nand.Time // event time per heap slot
	idx []int32     // source index per heap slot
}

// newEventHeap returns a heap seeded with sources 0..n-1 all eventing at t.
// Equal keys make the slice heap-ordered as built, so no sifting is
// needed.
func newEventHeap(n int, t nand.Time) *eventHeap {
	h := &eventHeap{at: make([]nand.Time, n), idx: make([]int32, n)}
	for i := 0; i < n; i++ {
		h.at[i] = t
		h.idx[i] = int32(i)
	}
	return h
}

func (h *eventHeap) len() int { return len(h.at) }

// less orders slot a before slot b by (time, source index).
func (h *eventHeap) less(a, b int) bool {
	if h.at[a] != h.at[b] {
		return h.at[a] < h.at[b]
	}
	return h.idx[a] < h.idx[b]
}

func (h *eventHeap) swap(a, b int) {
	h.at[a], h.at[b] = h.at[b], h.at[a]
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
}

// pop removes and returns the earliest-eventing source.
func (h *eventHeap) pop() (source int, at nand.Time) {
	source, at = int(h.idx[0]), h.at[0]
	last := len(h.at) - 1
	h.swap(0, last)
	h.at = h.at[:last]
	h.idx = h.idx[:last]
	h.siftDown(0)
	return source, at
}

// push (re-)inserts a source whose next event is at t.
func (h *eventHeap) push(source int, t nand.Time) {
	h.at = append(h.at, t)
	h.idx = append(h.idx, int32(source))
	h.siftUp(len(h.at) - 1)
}

func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.at)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

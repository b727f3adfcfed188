package obs

import (
	"fmt"
	"io"

	"learnedftl/internal/nand"
)

// Virtual track ids for non-chip tracks. Chip tracks use the chip index.
const (
	trackGC    = 10000
	trackScrub = 10001
)

// Event kinds, mapped to names and phase types at export time.
const (
	evRead uint8 = iota
	evProgram
	evErase
	evTransRead
	evTransProgram
	evGCOp
	evMountOp
	evGC
	evScrub
	numEvKinds
)

var evNames = [numEvKinds]string{
	"read", "program", "erase",
	"trans-read", "trans-program",
	"gc-op", "mount-op",
	"gc", "scrub",
}

// opEventKind maps a flash op to its trace event kind.
func opEventKind(op nand.OpType, kind nand.OpKind) uint8 {
	switch kind {
	case nand.OpTranslation:
		if op == nand.OpProgram {
			return evTransProgram
		}
		return evTransRead
	case nand.OpGC:
		return evGCOp
	case nand.OpMount:
		return evMountOp
	}
	switch op {
	case nand.OpProgram:
		return evProgram
	case nand.OpErase:
		return evErase
	}
	return evRead
}

// traceEvent is one ring slot: 24 bytes, no pointers.
type traceEvent struct {
	ts    nand.Time
	dur   nand.Time
	track int32
	kind  uint8
}

// Trace is a fixed-capacity ring buffer of virtual-time events exported as
// Chrome trace-event JSON (chrome://tracing, Perfetto). When full, the
// oldest events are overwritten — a multi-billion-op run keeps the last
// capEvents events in O(1) memory.
type Trace struct {
	ring    []traceEvent
	next    int
	n       int
	dropped int64
}

// DefaultTraceEvents is the default ring capacity (~24 MB).
const DefaultTraceEvents = 1 << 20

// NewTrace returns a ring holding up to capEvents events.
func NewTrace(capEvents int) *Trace {
	if capEvents < 1 {
		capEvents = DefaultTraceEvents
	}
	return &Trace{ring: make([]traceEvent, capEvents)}
}

func (t *Trace) add(ts, dur nand.Time, track int32, kind uint8) {
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.next] = traceEvent{ts: ts, dur: dur, track: track, kind: kind}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Len returns the number of buffered events.
func (t *Trace) Len() int { return t.n }

// Dropped returns how many events were overwritten by newer ones.
func (t *Trace) Dropped() int64 { return t.dropped }

// trackName names a track for the thread-name metadata events.
func trackName(track int32) string {
	switch track {
	case trackGC:
		return "gc"
	case trackScrub:
		return "scrub"
	}
	return fmt.Sprintf("chip %d", track)
}

// WriteJSON writes the buffered events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}) loadable in Perfetto. Virtual nanoseconds map to
// trace microseconds (the format's native unit).
func (t *Trace) WriteJSON(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf(`{"displayTimeUnit":"ns","traceEvents":[`)
	// Thread-name metadata for every track present.
	seen := map[int32]bool{}
	first := true
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		ev := t.ring[(start+i)%len(t.ring)]
		if !seen[ev.track] {
			seen[ev.track] = true
			if !first {
				bw.printf(",")
			}
			first = false
			bw.printf(`{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%q}}`,
				ev.track, trackName(ev.track))
		}
	}
	for i := 0; i < t.n; i++ {
		ev := t.ring[(start+i)%len(t.ring)]
		if !first {
			bw.printf(",")
		}
		first = false
		ts := float64(ev.ts) / 1e3 // virtual ns -> trace µs
		bw.printf(`{"ph":"X","name":%q,"pid":1,"tid":%d,"ts":%g,"dur":%g}`,
			evNames[ev.kind], ev.track, ts, float64(ev.dur)/1e3)
	}
	bw.printf("]}\n")
	return bw.err
}

// errWriter folds fmt.Fprintf error handling.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

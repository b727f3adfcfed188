package learned

import (
	"slices"
	"sort"
)

// LSMT is LeaFTL's log-structured mapping table (§II-C): learned segments
// organized in levels. New segments enter level 0; existing segments they
// overlap are pushed down one level so a top-down lookup always sees the
// newest segment covering an LPN first.
type LSMT struct {
	levels [][]Segment // each level sorted by S, non-overlapping
	nseg   int
}

// NewLSMT returns an empty log-structured mapping table.
func NewLSMT() *LSMT { return &LSMT{} }

// NumSegments returns the total number of live segments.
func (t *LSMT) NumSegments() int { return t.nseg }

// NumLevels returns the current number of levels.
func (t *LSMT) NumLevels() int { return len(t.levels) }

// SizeBytes returns the memory footprint charged for the table.
func (t *LSMT) SizeBytes() int { return t.nseg * SegmentBytes }

// Insert adds newly trained segments. Each enters level 0; overlapped older
// segments migrate down (the paper's "if one layer has overlapped segment,
// LeaFTL will migrate the old segment to the next layer").
func (t *LSMT) Insert(segs []Segment) {
	for _, s := range segs {
		t.insertAt(0, s)
	}
}

func (t *LSMT) insertAt(level int, seg Segment) {
	if level == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	lv := t.levels[level]
	lo := seg.S
	hi := seg.S + int64(seg.L)
	// Find overlapping run [i, j).
	i := sort.Search(len(lv), func(k int) bool { return lv[k].S+int64(lv[k].L) > lo })
	j := i
	for j < len(lv) && lv[j].S < hi {
		j++
	}
	// Push the overlapped run down first: deeper inserts never touch this
	// level, so lv[i:j] is still intact while it is read.
	for _, ev := range lv[i:j] {
		t.insertAt(level+1, ev)
	}
	t.nseg += 1 - (j - i)
	// Splice seg in place of the run.
	if j == i && len(lv) == cap(lv) {
		nlv := make([]Segment, len(lv)+1, len(lv)+1+len(lv)/8)
		copy(nlv, lv[:i])
		nlv[i] = seg
		copy(nlv[i+1:], lv[i:])
		lv = nlv
	} else {
		lv = slices.Replace(lv, i, j, seg)
	}
	t.levels[level] = clip(lv)
}

// clip reallocates a level whose spare capacity exceeds a quarter of its
// length, so levels that shrink do not pin their peak backing arrays.
func clip(lv []Segment) []Segment {
	if cap(lv)-len(lv) > len(lv)/4+1 {
		return slices.Clone(lv)
	}
	return lv
}

// Lookup returns the newest segment covering lpn, scanning levels top-down.
func (t *LSMT) Lookup(lpn int64) (Segment, bool) {
	for _, lv := range t.levels {
		i := sort.Search(len(lv), func(k int) bool { return lv[k].S+int64(lv[k].L) > lpn })
		if i < len(lv) && lv[i].Contains(lpn) {
			return lv[i], true
		}
	}
	return Segment{}, false
}

// ExportLevels returns a deep copy of the table's levels, newest first
// (device snapshots).
func (t *LSMT) ExportLevels() [][]Segment {
	out := make([][]Segment, len(t.levels))
	for i, lv := range t.levels {
		out[i] = append([]Segment(nil), lv...)
	}
	return out
}

// ImportLevels replaces the table's contents with the given levels,
// verbatim. Level structure matters — lookups scan top-down — so the
// import preserves it instead of re-inserting segment by segment.
func (t *LSMT) ImportLevels(levels [][]Segment) {
	t.levels = make([][]Segment, len(levels))
	t.nseg = 0
	for i, lv := range levels {
		t.levels[i] = append([]Segment(nil), lv...)
		t.nseg += len(lv)
	}
}

// span is a half-open LPN interval [lo, hi).
type span struct{ lo, hi int64 }

// ShadowScratch is CompactShadowed's working memory: the running union of
// the levels above the one being filtered and the union being built from
// it. The zero value is ready to use. One per caller is enough (LeaFTL
// keeps one per device); reused, it makes compaction allocation-free once
// it has grown to the largest table's size.
type ShadowScratch struct{ union, next []span }

// CompactShadowed drops lower-level segments whose whole key range is
// covered by segments in upper levels (they can never win a lookup). This is
// the space-reclamation role of LeaFTL's compaction; returns the number of
// segments dropped.
//
// One merge walk per level checks its segments against the union of the
// levels above it (kept as maximal disjoint spans) while folding the level
// into that union for the next. Filtering a level leaves the union as it
// was, since every dropped segment was already covered from above.
func (t *LSMT) CompactShadowed(sc *ShadowScratch) int {
	union, next := sc.union[:0], sc.next[:0]
	dropped := 0
	for li, lv := range t.levels {
		next = next[:0]
		keep := lv[:0]
		k := 0
		for _, s := range lv {
			lo, hi := s.S, s.S+int64(s.L)
			for ; k < len(union) && union[k].lo <= lo; k++ {
				next = addSpan(next, union[k])
			}
			// Every span above that starts at or before lo is in next
			// now, and being maximal, only next's last span can contain
			// the segment. This level's earlier segments, also in next,
			// end at or before lo, so they cover none of it.
			if li > 0 && (hi <= lo || len(next) > 0 && next[len(next)-1].lo <= lo && hi <= next[len(next)-1].hi) {
				dropped++
				t.nseg--
				continue
			}
			keep = append(keep, s)
			next = addSpan(next, span{lo, hi})
		}
		for _, u := range union[k:] {
			next = addSpan(next, u)
		}
		if li > 0 {
			t.levels[li] = clip(keep)
		}
		union, next = next, union
	}
	sc.union, sc.next = union, next
	// Trim empty tail levels.
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	return dropped
}

// addSpan appends u to spans sorted by lo, merging it into the last span
// when they overlap or touch, so the spans stay maximal and disjoint.
func addSpan(spans []span, u span) []span {
	if u.hi <= u.lo {
		return spans
	}
	if n := len(spans); n > 0 && u.lo <= spans[n-1].hi {
		spans[n-1].hi = max(spans[n-1].hi, u.hi)
		return spans
	}
	return append(spans, u)
}

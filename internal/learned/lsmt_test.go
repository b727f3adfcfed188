package learned

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func seg(s, l int64) Segment {
	return Segment{S: s, L: int32(l), K: 1, I: float64(s * 10)}
}

func TestLSMTInsertAndLookup(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{seg(0, 10), seg(20, 10)})
	if lt.NumSegments() != 2 || lt.NumLevels() != 1 {
		t.Fatalf("segments=%d levels=%d", lt.NumSegments(), lt.NumLevels())
	}
	if s, ok := lt.Lookup(5); !ok || s.S != 0 {
		t.Fatalf("Lookup(5) = %+v,%v", s, ok)
	}
	if s, ok := lt.Lookup(25); !ok || s.S != 20 {
		t.Fatalf("Lookup(25) = %+v,%v", s, ok)
	}
	if _, ok := lt.Lookup(15); ok {
		t.Fatal("Lookup(15) found in gap")
	}
}

func TestLSMTNewerWins(t *testing.T) {
	lt := NewLSMT()
	old := Segment{S: 0, L: 100, K: 1, I: 0}
	lt.Insert([]Segment{old})
	newer := Segment{S: 40, L: 20, K: 1, I: 9999}
	lt.Insert([]Segment{newer})
	if lt.NumLevels() != 2 {
		t.Fatalf("levels = %d, want 2", lt.NumLevels())
	}
	if s, _ := lt.Lookup(50); s.I != 9999 {
		t.Fatalf("Lookup(50) returned old segment %+v", s)
	}
	// LPNs outside the new range still resolve to the old one, pushed down.
	if s, ok := lt.Lookup(10); !ok || s.I != 0 {
		t.Fatalf("Lookup(10) = %+v,%v", s, ok)
	}
}

func TestLSMTCascadingPushdown(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 3}})
	if lt.NumLevels() != 3 || lt.NumSegments() != 3 {
		t.Fatalf("levels=%d segs=%d", lt.NumLevels(), lt.NumSegments())
	}
	if s, _ := lt.Lookup(5); s.I != 3 {
		t.Fatalf("newest insert does not win: %+v", s)
	}
}

func TestLSMTCompactShadowed(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}}) // fully shadows the first
	if lt.NumSegments() != 2 {
		t.Fatal("setup wrong")
	}
	dropped := lt.CompactShadowed(new(ShadowScratch))
	if dropped != 1 || lt.NumSegments() != 1 || lt.NumLevels() != 1 {
		t.Fatalf("dropped=%d segs=%d levels=%d", dropped, lt.NumSegments(), lt.NumLevels())
	}
	if s, _ := lt.Lookup(5); s.I != 2 {
		t.Fatalf("survivor wrong: %+v", s)
	}
}

func TestLSMTCompactKeepsPartiallyVisible(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{{S: 0, L: 20, K: 1, I: 1}})
	lt.Insert([]Segment{{S: 0, L: 10, K: 1, I: 2}}) // shadows only half
	if dropped := lt.CompactShadowed(new(ShadowScratch)); dropped != 0 {
		t.Fatalf("dropped %d, want 0", dropped)
	}
	if s, _ := lt.Lookup(15); s.I != 1 {
		t.Fatalf("partially visible segment lost: %+v", s)
	}
}

func TestLSMTSizeBytes(t *testing.T) {
	lt := NewLSMT()
	lt.Insert([]Segment{seg(0, 10), seg(20, 10), seg(40, 10)})
	if got := lt.SizeBytes(); got != 3*SegmentBytes {
		t.Fatalf("SizeBytes = %d", got)
	}
}

// Property: after inserting arbitrary batches, Lookup always returns the
// segment from the most recent batch whose range covers the key.
func TestLSMTRecencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lt := NewLSMT()
		const keys = 200
		newest := make([]float64, keys) // shadow: newest I covering each key
		for i := range newest {
			newest[i] = -1
		}
		for batch := 1; batch <= 20; batch++ {
			s := int64(rng.Intn(keys - 1))
			l := int64(1 + rng.Intn(keys-int(s)))
			segm := Segment{S: s, L: int32(l), K: 0, I: float64(batch)}
			lt.Insert([]Segment{segm})
			for k := s; k < s+l; k++ {
				newest[k] = float64(batch)
			}
		}
		for k := 0; k < keys; k++ {
			s, ok := lt.Lookup(int64(k))
			if newest[k] < 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || s.I != newest[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refLSMT is the reference for TestLSMTMatchesReferenceProperty, kept
// verbatim from earlier production LSMTs: insertAt is the allocating write
// path the in-place splice replaced, copying the evicted run and
// rebuilding the level on every insert; CompactShadowed and shadowed are
// the per-segment shadow probe the one-pass merge replaced, binary-searching
// every upper level at every covered step. Lookups and snapshots are the
// production LSMT's.
type refLSMT struct{ LSMT }

func (t *refLSMT) Insert(segs []Segment) {
	for _, s := range segs {
		t.insertAt(0, s)
	}
}

func (t *refLSMT) insertAt(level int, seg Segment) {
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
	evicted := make([]Segment, j-i)
	copy(evicted, lv[i:j])
	// Splice seg in place of the evicted run.
	nlv := make([]Segment, 0, len(lv)-(j-i)+1)
	nlv = append(nlv, lv[:i]...)
	nlv = append(nlv, seg)
	nlv = append(nlv, lv[j:]...)
	t.levels[level] = nlv
	t.nseg++
	for _, ev := range evicted {
		t.nseg--
		t.insertAt(level+1, ev)
	}
}

func (t *refLSMT) CompactShadowed() int {
	dropped := 0
	for li := 1; li < len(t.levels); li++ {
		// Filtering in place is safe: shadowed reads only levels above li.
		lv := t.levels[li]
		keep := lv[:0]
		for _, s := range lv {
			if t.shadowed(s, li) {
				dropped++
				t.nseg--
			} else {
				keep = append(keep, s)
			}
		}
		t.levels[li] = clip(keep)
	}
	// Trim empty tail levels.
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	return dropped
}

// shadowed reports whether every LPN of s is covered by levels above `below`.
// Instead of probing each LPN of the segment, it walks the covered interval
// greedily: at each uncovered position it binary-searches every upper level
// (sorted by Segment.S) for the segment containing that position and jumps
// to the farthest covered end, so the check costs O(k · levels · log n) for
// k covering segments rather than O(L · levels · log n) for L spanned LPNs.
func (t *refLSMT) shadowed(s Segment, below int) bool {
	pos := s.S
	hi := s.S + int64(s.L)
	for pos < hi {
		next := pos
		for li := 0; li < below; li++ {
			lv := t.levels[li]
			// Last segment with S <= pos is the only one that can cover pos
			// (segments within a level are sorted and non-overlapping).
			i := sort.Search(len(lv), func(k int) bool { return lv[k].S > pos }) - 1
			if i >= 0 {
				if end := lv[i].S + int64(lv[i].L); end > next {
					next = end
				}
			}
		}
		if next == pos {
			return false // pos is covered by no upper level
		}
		pos = next
	}
	return true
}

// randSegments returns 1–8 sorted, non-overlapping segments with keys in
// one 512-LPN page and spans of 1–256; each carries a unique intercept so a
// misplaced segment cannot compare equal.
func randSegments(rng *rand.Rand, id *float64) []Segment {
	var out []Segment
	pos := int64(rng.Intn(512))
	for k := 1 + rng.Intn(8); k > 0 && pos < 512; k-- {
		l := min(int64(1+rng.Intn(256)), 512-pos)
		*id++
		out = append(out, Segment{S: pos, L: int32(l), K: rng.Float64(), I: *id, Err: int32(rng.Intn(5))})
		pos += l + int64(rng.Intn(64))
	}
	return out
}

// Property: the production LSMT and the reference hold the same levels and
// segment count after every Insert and CompactShadowed, and no level keeps
// more spare capacity than the clip rule allows. Every third seed compacts
// after most inserts, as GC retrains do; all share one compaction scratch.
func TestLSMTMatchesReferenceProperty(t *testing.T) {
	var sc ShadowScratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var id float64
		lt, ref := NewLSMT(), &refLSMT{}
		compactEvery := 16
		if seed%3 == 0 {
			compactEvery = 2
		}
		if seed%4 == 0 {
			// Start from imported levels, as a restored snapshot does.
			var levels [][]Segment
			for range 1 + rng.Intn(4) {
				levels = append(levels, randSegments(rng, &id))
			}
			lt.ImportLevels(levels)
			ref.ImportLevels(levels)
		}
		for op := 0; op < 200; op++ {
			if rng.Intn(compactEvery) == 0 {
				if a, b := lt.CompactShadowed(&sc), ref.CompactShadowed(); a != b {
					t.Logf("seed %d op %d: CompactShadowed dropped %d, reference %d", seed, op, a, b)
					return false
				}
			} else {
				segs := randSegments(rng, &id)
				lt.Insert(segs)
				ref.Insert(segs)
			}
			if !reflect.DeepEqual(lt.ExportLevels(), ref.ExportLevels()) || lt.NumSegments() != ref.NumSegments() {
				t.Logf("seed %d op %d: levels\n%v\nreference\n%v", seed, op, lt.ExportLevels(), ref.ExportLevels())
				return false
			}
			for li, lv := range lt.levels {
				if cap(lv)-len(lv) > len(lv)/4+1 {
					t.Logf("seed %d op %d: level %d len %d cap %d", seed, op, li, len(lv), cap(lv))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

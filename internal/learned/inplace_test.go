package learned

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInPlaceModelUntrained(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	if m.Trained() {
		t.Fatal("new model claims trained")
	}
	if _, ok := m.Predict(0); ok {
		t.Fatal("untrained model predicted")
	}
	if m.AccurateBits() != 0 {
		t.Fatal("untrained model has accurate bits")
	}
}

func TestTrainFullPerfectlyLinear(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	vppns := make([]int64, 512)
	base := int64(10000)
	for i := range vppns {
		vppns[i] = base + int64(i)
	}
	exact := m.TrainFull(base, vppns)
	if exact != 512 {
		t.Fatalf("exact = %d, want 512", exact)
	}
	if m.NumPieces() != 1 {
		t.Fatalf("pieces = %d, want 1", m.NumPieces())
	}
	for i := 0; i < 512; i++ {
		v, ok := m.Predict(i)
		if !ok || v != vppns[i] {
			t.Fatalf("Predict(%d) = %d,%v; want %d", i, v, ok, vppns[i])
		}
	}
}

func TestTrainFullWithHoles(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	vppns := make([]int64, 64)
	for i := range vppns {
		vppns[i] = -1
	}
	// Present LPNs get rank-order VPPNs (the post-GC layout): offsets
	// 0,2,4,...,30 → VPPNs 100..115 — one fractional-slope piece.
	for i := 0; i < 16; i++ {
		vppns[2*i] = 100 + int64(i)
	}
	exact := m.TrainFull(100, vppns)
	if exact != 16 {
		t.Fatalf("exact = %d, want 16", exact)
	}
	for i := 0; i < 16; i++ {
		v, ok := m.Predict(2 * i)
		if !ok || v != 100+int64(i) {
			t.Fatalf("Predict(%d) = %d,%v", 2*i, v, ok)
		}
	}
	// Absent offsets must not predict.
	if _, ok := m.Predict(1); ok {
		t.Fatal("absent offset predicted")
	}
}

func TestTrainFullCapDropsFragmentedRuns(t *testing.T) {
	m := NewInPlaceModel(512, 2)
	vppns := make([]int64, 512)
	for i := range vppns {
		vppns[i] = -1
	}
	// Three linear runs with distinct slopes/intercepts (gaps between runs
	// break collinearity): lengths 100, 10, 80. Cap 2 keeps 100 and 80.
	for i := 0; i < 100; i++ {
		vppns[i] = int64(i)
	}
	for i := 0; i < 10; i++ {
		vppns[150+i] = 5000 + int64(3*i)
	}
	for i := 0; i < 80; i++ {
		vppns[300+i] = 9000 + int64(i)
	}
	exact := m.TrainFull(0, vppns)
	if exact != 180 {
		t.Fatalf("exact = %d, want 180", exact)
	}
	if m.NumPieces() != 2 {
		t.Fatalf("pieces = %d, want 2", m.NumPieces())
	}
	if _, ok := m.Predict(155); ok {
		t.Fatal("dropped run still predicts")
	}
	if v, ok := m.Predict(310); !ok || v != 9010 {
		t.Fatalf("kept run Predict(310) = %d,%v", v, ok)
	}
}

func TestInvalidateClearsBit(t *testing.T) {
	m := NewInPlaceModel(16, 4)
	vppns := make([]int64, 16)
	for i := range vppns {
		vppns[i] = int64(i)
	}
	m.TrainFull(0, vppns)
	if !m.CanPredict(5) {
		t.Fatal("bit not set after training")
	}
	m.Invalidate(5)
	if m.CanPredict(5) {
		t.Fatal("bit set after Invalidate")
	}
	// Other bits untouched.
	if !m.CanPredict(4) || !m.CanPredict(6) {
		t.Fatal("Invalidate clobbered neighbors")
	}
	// Out-of-range invalidate must not panic.
	m.Invalidate(-1)
	m.Invalidate(999)
}

func TestSequentialInitOnUntrainedModel(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	if !m.SequentialInit(100, 32, 7000) {
		t.Fatal("init rejected")
	}
	for i := 0; i < 32; i++ {
		v, ok := m.Predict(100 + i)
		if !ok || v != 7000+int64(i) {
			t.Fatalf("Predict(%d) = %d,%v; want %d", 100+i, v, ok, 7000+int64(i))
		}
	}
	if _, ok := m.Predict(99); ok {
		t.Fatal("uncovered offset predicted")
	}
}

func TestSequentialInitSplitsExistingPiece(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	vppns := make([]int64, 64)
	for i := range vppns {
		vppns[i] = 1000 + int64(i)
	}
	m.TrainFull(1000, vppns)
	// Overwrite the middle [20,30) with new locations; write path clears
	// bits first.
	for i := 20; i < 30; i++ {
		m.Invalidate(i)
	}
	if !m.SequentialInit(20, 10, 5000) {
		t.Fatal("in-place update rejected")
	}
	// Head keeps old mapping, middle has new, tail keeps old.
	if v, ok := m.Predict(19); !ok || v != 1019 {
		t.Fatalf("head Predict(19) = %d,%v", v, ok)
	}
	if v, ok := m.Predict(25); !ok || v != 5005 {
		t.Fatalf("mid Predict(25) = %d,%v", v, ok)
	}
	if v, ok := m.Predict(30); !ok || v != 1030 {
		t.Fatalf("tail Predict(30) = %d,%v", v, ok)
	}
	if m.NumPieces() != 3 {
		t.Fatalf("pieces = %d, want 3", m.NumPieces())
	}
}

func TestSequentialInitSkipsWhenCoverageNotBetter(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	vppns := make([]int64, 64)
	for i := range vppns {
		vppns[i] = int64(i)
	}
	m.TrainFull(0, vppns)
	// The range is already fully accurate: a same-length init is pointless
	// and must be skipped (step ③/④ of §III-E1).
	if m.SequentialInit(10, 5, 999) {
		t.Fatal("init accepted despite full existing coverage")
	}
	if v, _ := m.Predict(12); v != 12 {
		t.Fatalf("model changed by skipped init: %d", v)
	}
}

func TestSequentialInitRejectsWhenPiecesFull(t *testing.T) {
	m := NewInPlaceModel(512, 2)
	if !m.SequentialInit(0, 10, 0) {
		t.Fatal("first init rejected")
	}
	if !m.SequentialInit(100, 10, 5000) {
		t.Fatal("second init rejected")
	}
	// Third disjoint run would need a 3rd piece.
	if m.SequentialInit(300, 10, 9000) {
		t.Fatal("init accepted beyond piece capacity")
	}
	// Existing predictions survive the rejected update.
	if v, ok := m.Predict(5); !ok || v != 5 {
		t.Fatalf("Predict(5) = %d,%v after rejected init", v, ok)
	}
}

func TestSequentialInitBoundsChecks(t *testing.T) {
	m := NewInPlaceModel(64, 8)
	if m.SequentialInit(-1, 5, 0) || m.SequentialInit(60, 10, 0) || m.SequentialInit(0, 0, 0) {
		t.Fatal("out-of-bounds init accepted")
	}
}

func TestSizeBytesMatchesPaper(t *testing.T) {
	m := NewInPlaceModel(512, 8)
	if got := m.SizeBytes(); got != 128 {
		t.Fatalf("SizeBytes = %d, want the paper's 128", got)
	}
}

// Property: after any sequence of TrainFull / Invalidate / SequentialInit,
// every Predict that returns ok yields the exact VPPN of the offset
// according to a shadow map — the §III-B "only accurate predictions"
// guarantee.
func TestInPlaceModelNeverWrongProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := 128
		m := NewInPlaceModel(span, 4)
		shadow := make([]int64, span) // -1 = unmapped
		for i := range shadow {
			shadow[i] = -1
		}
		nextVPPN := int64(1000)
		for step := 0; step < 60; step++ {
			switch rng.Intn(3) {
			case 0: // sequential write + init
				off := rng.Intn(span)
				n := 1 + rng.Intn(span-off)
				for i := 0; i < n; i++ {
					shadow[off+i] = nextVPPN + int64(i)
					m.Invalidate(off + i)
				}
				m.SequentialInit(off, n, nextVPPN)
				nextVPPN += int64(n) + int64(rng.Intn(100))
			case 1: // random single-page writes (invalidate only)
				off := rng.Intn(span)
				shadow[off] = nextVPPN
				m.Invalidate(off)
				nextVPPN += 1 + int64(rng.Intn(10))
			case 2: // GC retrain: valid pages re-laid out contiguously
				base := nextVPPN
				v := make([]int64, span)
				for i := range v {
					if shadow[i] >= 0 {
						shadow[i] = nextVPPN
						v[i] = nextVPPN
						nextVPPN++
					} else {
						v[i] = -1
					}
				}
				m.TrainFull(base, v)
			}
			// Check the invariant on all offsets.
			for off := 0; off < span; off++ {
				if v, ok := m.Predict(off); ok && v != shadow[off] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refInsertPiece is the allocating insertPiece the in-place splice
// replaced, kept verbatim (with its pruneDead) as the reference for
// TestInsertPieceMatchesReferenceProperty: it builds the spliced array in
// a fresh slice and only then checks it against the capacity.
func refInsertPiece(m *InPlaceModel, np Piece, s, e int64) bool {
	out := make([]Piece, 0, len(m.pieces)+2)
	inserted := false
	for i, p := range m.pieces {
		pEnd := int64(m.span)
		if i+1 < len(m.pieces) {
			pEnd = m.pieces[i+1].Off
		}
		if pEnd <= s || p.Off >= e {
			// Untouched piece; emit new piece before any later piece.
			if !inserted && p.Off >= e {
				out = append(out, np)
				inserted = true
			}
			out = append(out, p)
			continue
		}
		// Overlap: keep the head [p.Off, s) under the old parameters.
		if p.Off < s {
			out = append(out, p)
		}
		if !inserted {
			out = append(out, np)
			inserted = true
		}
		// Keep the tail [e, pEnd) under the old parameters: same K/B with a
		// bumped Off, exactly the paper's off adjustment.
		if pEnd > e {
			out = append(out, Piece{Off: e, K: p.K, B: p.B})
		}
	}
	if !inserted {
		out = append(out, np)
	}
	out = refPruneDead(m, out, s, e)
	if len(out) > m.maxPieces {
		return false
	}
	m.pieces = out
	return true
}

func refPruneDead(m *InPlaceModel, pieces []Piece, s, e int64) []Piece {
	out := pieces[:0]
	for i, p := range pieces {
		pEnd := int64(m.span)
		if i+1 < len(pieces) {
			pEnd = pieces[i+1].Off
		}
		if p.Off <= s && s < pEnd || p.Off < e && e <= pEnd || (s <= p.Off && pEnd <= e) {
			// Overlaps the about-to-be-set range: live.
			out = append(out, p)
			continue
		}
		if m.bm.CountRange(int(p.Off), int(pEnd)) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Property: over random sequences of writes (Invalidate), sequential
// writes (Invalidate + the SequentialInit splice) and GC retrains, the
// in-place insertPiece and the allocating reference accept the same
// splices and leave identical model states, and a rejected splice leaves
// the model untouched.
func TestInsertPieceMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := 64 + rng.Intn(449)
		m := NewInPlaceModel(span, 1+rng.Intn(8))
		ref := NewInPlaceModel(span, m.maxPieces)
		next := int64(1000)
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a sequential write: invalidate, then splice
				off := rng.Intn(span)
				n := 1 + rng.Intn(min(span-off, 1+rng.Intn(32)))
				for i := off; i < off+n; i++ {
					m.Invalidate(i)
					ref.Invalidate(i)
				}
				if m.bm.CountRange(off, off+n) >= n {
					continue
				}
				if m.base == unsetBase {
					m.base, ref.base = next, next
				}
				s, e := int64(off), int64(off+n)
				np := Piece{Off: s, K: 1, B: float64(next-m.base) - float64(s)}
				before := m.ExportState()
				got, want := m.insertPiece(np, s, e), refInsertPiece(ref, np, s, e)
				if got != want {
					t.Logf("seed %d step %d: insertPiece %v, reference %v", seed, step, got, want)
					return false
				}
				if !got && !reflect.DeepEqual(m.ExportState(), before) {
					t.Logf("seed %d step %d: rejected splice changed the model", seed, step)
					return false
				}
				if got {
					m.bm.SetRange(off, off+n)
					ref.bm.SetRange(off, off+n)
				}
				next += int64(n + rng.Intn(50))
			case op < 9: // scattered overwrites
				for k := rng.Intn(8); k >= 0; k-- {
					off := rng.Intn(span)
					m.Invalidate(off)
					ref.Invalidate(off)
				}
			default: // GC retrain over a random live set
				v := make([]int64, span)
				for i := range v {
					v[i] = -1
					if rng.Intn(3) > 0 {
						v[i] = next + int64(i)
						if rng.Intn(8) == 0 {
							next++
						}
					}
				}
				m.TrainFull(next, v)
				ref.TrainFull(next, v)
				next += int64(span) + 8
			}
			if !reflect.DeepEqual(m.ExportState(), ref.ExportState()) {
				t.Logf("seed %d step %d: state\n%+v\nreference\n%+v", seed, step, m.ExportState(), ref.ExportState())
				return false
			}
			if len(m.pieces) > m.maxPieces {
				t.Logf("seed %d step %d: %d pieces over capacity %d", seed, step, len(m.pieces), m.maxPieces)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitmap wrong")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 || !b.Get(64) || b.Get(63) {
		t.Fatal("set/get wrong")
	}
	b.Clear(64)
	if b.Count() != 2 || b.Get(64) {
		t.Fatal("clear wrong")
	}
	b.SetRange(10, 20)
	if b.CountRange(10, 20) != 10 {
		t.Fatal("SetRange/CountRange wrong")
	}
	b.ClearRange(10, 15)
	if b.CountRange(10, 20) != 5 {
		t.Fatal("ClearRange wrong")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset wrong")
	}
	if b.SizeBytes() != 24 { // ceil(130/64)*8
		t.Fatalf("SizeBytes = %d", b.SizeBytes())
	}
}

// TestBitmapRangeOpsMatchPerBit checks the word-at-a-time range operations
// against per-bit loops over every [lo, hi), empty ranges included, for
// lengths around the word boundaries and several bit patterns.
func TestBitmapRangeOpsMatchPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 130, 512} {
		words := (n + 63) / 64
		patterns := [][]uint64{make([]uint64, words), make([]uint64, words)}
		for range 2 {
			p := make([]uint64, words)
			for w := range p {
				p[w] = rng.Uint64()
			}
			patterns = append(patterns, p)
		}
		for w := range patterns[1] {
			patterns[1][w] = ^uint64(0)
		}
		orig, in, got, ref := NewBitmap(n), NewBitmap(n), NewBitmap(n), NewBitmap(n)
		for _, pat := range patterns {
			if n%64 != 0 { // keep bits past n zero, as Set never touches them
				pat[words-1] &= 1<<(uint(n)%64) - 1
			}
			copy(orig.words, pat)
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					in.Reset()
					want := 0
					for i := lo; i < hi; i++ {
						in.Set(i)
						if orig.Get(i) {
							want++
						}
					}
					if c := orig.CountRange(lo, hi); c != want {
						t.Fatalf("n=%d [%d,%d) pattern %x: CountRange = %d, per-bit %d", n, lo, hi, pat, c, want)
					}
					for _, set := range []bool{true, false} {
						copy(got.words, pat)
						copy(ref.words, pat)
						op := "ClearRange"
						if set {
							op = "SetRange"
							got.SetRange(lo, hi)
							for i := lo; i < hi; i++ {
								ref.Set(i)
							}
						} else {
							got.ClearRange(lo, hi)
							for i := lo; i < hi; i++ {
								ref.Clear(i)
							}
						}
						for w := range got.words {
							if got.words[w] != ref.words[w] {
								t.Fatalf("n=%d [%d,%d) pattern %x: %s word %d = %x, per-bit %x", n, lo, hi, pat, op, w, got.words[w], ref.words[w])
							}
							if (got.words[w]^pat[w])&^in.words[w] != 0 {
								t.Fatalf("n=%d [%d,%d) pattern %x: %s touched bits outside the range in word %d", n, lo, hi, pat, op, w)
							}
						}
					}
				}
			}
		}
	}
}

package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"learnedftl/internal/nand"
)

func TestCMTLookupInsert(t *testing.T) {
	c := NewCMT(4, 512)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(1, 100, false)
	if p, ok := c.Lookup(1); !ok || p != 100 {
		t.Fatalf("Lookup(1) = %d,%v", p, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCMTLRUOrder(t *testing.T) {
	c := NewCMT(3, 512)
	c.Insert(1, 10, false)
	c.Insert(2, 20, false)
	c.Insert(3, 30, false)
	c.Lookup(1) // promote 1; LRU is now 2
	c.Insert(4, 40, false)
	if !c.NeedsEviction() {
		t.Fatal("over-capacity cache does not need eviction")
	}
	e, ok := c.EvictLRU()
	if !ok || e.LPN != 2 {
		t.Fatalf("evicted %+v, want LPN 2", e)
	}
	if c.NeedsEviction() {
		t.Fatal("still needs eviction after evicting to capacity")
	}
}

func TestCMTDirtyTracking(t *testing.T) {
	c := NewCMT(4, 512)
	c.Insert(1, 10, true)
	c.Insert(2, 20, false)
	if c.DirtyLen() != 1 {
		t.Fatalf("DirtyLen = %d", c.DirtyLen())
	}
	// Upgrading clean→dirty and downgrading via MarkClean.
	c.Insert(2, 21, true)
	if c.DirtyLen() != 2 {
		t.Fatalf("DirtyLen = %d after upgrade", c.DirtyLen())
	}
	c.MarkClean(1)
	if c.DirtyLen() != 1 {
		t.Fatalf("DirtyLen = %d after MarkClean", c.DirtyLen())
	}
	if e, _ := c.Peek(1); e.Dirty {
		t.Fatal("entry still dirty after MarkClean")
	}
	// Eviction of dirty entry decrements the counter.
	c.Lookup(1)
	if e, ok := c.EvictLRU(); !ok || e.LPN != 2 || !e.Dirty {
		t.Fatalf("evicted %+v", e)
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen = %d after dirty eviction", c.DirtyLen())
	}
}

func TestCMTInsertUpdatesInPlace(t *testing.T) {
	c := NewCMT(2, 512)
	c.Insert(1, 10, false)
	c.Insert(1, 11, true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after re-insert", c.Len())
	}
	if p, _ := c.Lookup(1); p != 11 {
		t.Fatalf("PPN = %d", p)
	}
}

func TestCMTZeroCapacity(t *testing.T) {
	c := NewCMT(0, 512)
	c.Insert(1, 10, false)
	if c.Len() != 0 {
		t.Fatal("zero-cap cache stored an entry")
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("zero-cap cache hit")
	}
}

func TestCMTRemove(t *testing.T) {
	c := NewCMT(4, 512)
	c.Insert(1, 10, true)
	e, ok := c.Remove(1)
	if !ok || e.PPN != 10 {
		t.Fatalf("Remove = %+v,%v", e, ok)
	}
	if c.Len() != 0 || c.DirtyLen() != 0 {
		t.Fatal("Remove left residue")
	}
	if _, ok := c.Remove(99); ok {
		t.Fatal("Remove of absent lpn succeeded")
	}
}

// DirtyInRange is the frozen reference for the per-page dirty lists: the
// historical write-back scan, one index probe per LPN of [lo, hi). Do not
// optimize it — its whole value is being the obviously correct spec.
func (c *CMT) DirtyInRange(lo, hi int64) []Entry {
	var out []Entry
	for lpn := lo; lpn < hi; lpn++ {
		if n, ok := c.index[lpn]; ok {
			if e := c.nodes[n].entry; e.Dirty {
				out = append(out, e)
			}
		}
	}
	return out
}

// dirtyListLPNs walks tpn's dirty list, checking its back links, and
// returns the LPNs on it.
func dirtyListLPNs(t *testing.T, c *CMT, tpn int) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	if tpn >= len(c.dhead) {
		return out
	}
	prev := nilNode
	for n := c.dhead[tpn]; n != nilNode; n = c.nodes[n].dnext {
		nd := c.nodes[n]
		if nd.dprev != prev {
			t.Fatalf("TP %d: node %d dprev = %d, want %d", tpn, n, nd.dprev, prev)
		}
		if out[nd.entry.LPN] {
			t.Fatalf("TP %d: LPN %d listed twice", tpn, nd.entry.LPN)
		}
		out[nd.entry.LPN] = true
		prev = n
	}
	return out
}

func TestCMTCleanTP(t *testing.T) {
	c := NewCMT(10, 512)
	c.Insert(100, 1, true)
	c.Insert(101, 2, false)
	c.Insert(102, 3, true)
	c.Insert(600, 4, true) // outside TP 0
	if got := c.CleanTP(0); got != 2 {
		t.Fatalf("CleanTP(0) cleared %d entries, want 2", got)
	}
	for _, lpn := range []int64{100, 101, 102} {
		if e, ok := c.Peek(lpn); !ok || e.Dirty {
			t.Fatalf("LPN %d after CleanTP(0): %+v,%v", lpn, e, ok)
		}
	}
	if e, ok := c.Peek(101); !ok || e.PPN != 2 {
		t.Fatalf("clean LPN 101 changed: %+v,%v", e, ok)
	}
	if e, ok := c.Peek(600); !ok || !e.Dirty || e.PPN != 4 {
		t.Fatalf("LPN 600 outside TP 0 changed: %+v,%v", e, ok)
	}
	if c.DirtyLen() != 1 || c.Len() != 4 {
		t.Fatalf("DirtyLen = %d, Len = %d after CleanTP(0)", c.DirtyLen(), c.Len())
	}
	if got := c.CleanTP(0); got != 0 {
		t.Fatalf("second CleanTP(0) cleared %d", got)
	}
	if got := c.CleanTP(99); got != 0 {
		t.Fatalf("CleanTP of a never-dirtied page cleared %d", got)
	}
	if got := c.CleanTP(1); got != 1 || c.DirtyLen() != 0 {
		t.Fatalf("CleanTP(1) = %d, DirtyLen = %d", got, c.DirtyLen())
	}
}

// TestCMTWriteBackAllocFree pins the batched write-back path — a dirty
// insert, its eviction and the translation-page clean — at zero heap
// allocations once the cache is warm.
func TestCMTWriteBackAllocFree(t *testing.T) {
	const capn, tp = 64, 8
	c := NewCMT(capn, tp)
	for i := int64(0); i < 4*capn; i++ {
		c.Insert(i, nand.PPN(i), true)
		for c.NeedsEviction() {
			c.EvictLRU()
		}
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		lpn := i % (4 * capn)
		i++
		c.Insert(lpn, nand.PPN(lpn), true)
		for c.NeedsEviction() {
			if e, _ := c.EvictLRU(); e.Dirty {
				c.CleanTP(int(e.LPN / tp))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("write-back path allocates %.1f per op, want 0", allocs)
	}
}

func TestCMTUpdatePPN(t *testing.T) {
	c := NewCMT(4, 512)
	c.Insert(1, 10, true)
	if !c.UpdatePPN(1, 99) {
		t.Fatal("UpdatePPN failed")
	}
	e, _ := c.Peek(1)
	if e.PPN != 99 || !e.Dirty {
		t.Fatalf("entry after UpdatePPN: %+v", e)
	}
	if c.UpdatePPN(42, 1) {
		t.Fatal("UpdatePPN of absent lpn succeeded")
	}
}

// Property: Len never exceeds cap+1 between Insert and eviction drain, the
// dirty counter always equals the number of dirty entries, lookups return
// the most recently inserted PPN, and every translation page's dirty list
// holds exactly the entries the frozen DirtyInRange scan finds.
func TestCMTInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := 1 + rng.Intn(20)
		tp := []int{1, 3, 8, 512}[rng.Intn(4)]
		span := int64(40)
		if s := 3 * int64(tp); s > span {
			span = s
		}
		numTPN := int((span + int64(tp) - 1) / int64(tp))
		c := NewCMT(capn, tp)
		shadow := map[int64]Entry{}
		for op := 0; op < 300; op++ {
			lpn := rng.Int63n(span)
			switch rng.Intn(6) {
			case 0, 1:
				e := Entry{LPN: lpn, PPN: nand.PPN(rng.Intn(1000)), Dirty: rng.Intn(2) == 0}
				c.Insert(lpn, e.PPN, e.Dirty)
				shadow[lpn] = e
				for c.NeedsEviction() {
					ev, ok := c.EvictLRU()
					if !ok {
						return false
					}
					delete(shadow, ev.LPN)
				}
			case 2:
				if p, ok := c.Lookup(lpn); ok {
					if shadow[lpn].PPN != p {
						return false
					}
				}
			case 3:
				c.Remove(lpn)
				delete(shadow, lpn)
			case 4:
				c.MarkClean(lpn)
				if e, ok := shadow[lpn]; ok {
					e.Dirty = false
					shadow[lpn] = e
				}
			case 5:
				tpn := rng.Intn(numTPN + 1)
				lo, hi := int64(tpn)*int64(tp), int64(tpn+1)*int64(tp)
				want := len(c.DirtyInRange(lo, hi))
				if got := c.CleanTP(tpn); got != want {
					t.Logf("seed %d op %d: CleanTP(%d) = %d, reference %d", seed, op, tpn, got, want)
					return false
				}
				for l, e := range shadow {
					if l >= lo && l < hi {
						e.Dirty = false
						shadow[l] = e
					}
				}
			}
			if c.Len() != len(shadow) || c.Len() > capn {
				return false
			}
			dirty := 0
			for _, e := range shadow {
				if e.Dirty {
					dirty++
				}
			}
			if dirty != c.DirtyLen() {
				return false
			}
			listed := 0
			for tpn := 0; tpn <= numTPN; tpn++ {
				lo, hi := int64(tpn)*int64(tp), int64(tpn+1)*int64(tp)
				got := dirtyListLPNs(t, c, tpn)
				want := c.DirtyInRange(lo, hi)
				if len(got) != len(want) {
					t.Logf("seed %d op %d: TP %d lists %d dirty, reference %d", seed, op, tpn, len(got), len(want))
					return false
				}
				for _, e := range want {
					if !got[e.LPN] || !shadow[e.LPN].Dirty {
						return false
					}
				}
				listed += len(got)
			}
			if listed != c.DirtyLen() {
				return false
			}
		}
		// A snapshot round trip (Export, then Insert into a fresh cache)
		// rebuilds the same dirty lists.
		fresh := NewCMT(capn, tp)
		for _, e := range c.Export() {
			fresh.Insert(e.LPN, e.PPN, e.Dirty)
		}
		for tpn := 0; tpn <= numTPN; tpn++ {
			if got, want := fresh.CleanTP(tpn), c.CleanTP(tpn); got != want {
				t.Logf("seed %d: restored CleanTP(%d) = %d, original %d", seed, tpn, got, want)
				return false
			}
		}
		return c.DirtyLen() == 0 && fresh.DirtyLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGTDBasics(t *testing.T) {
	g := NewGTD(8)
	if g.NumTPNs() != 8 {
		t.Fatalf("NumTPNs = %d", g.NumTPNs())
	}
	if g.Written(3) {
		t.Fatal("fresh GTD entry claims written")
	}
	if g.Lookup(3) != nand.InvalidPPN {
		t.Fatal("fresh GTD entry has a location")
	}
	g.Update(3, 1234)
	if !g.Written(3) || g.Lookup(3) != 1234 {
		t.Fatal("Update/Lookup mismatch")
	}
}

// TestCMTCapacityOne exercises the smallest useful cache: every insert of a
// new LPN pushes the previous one over capacity and through the pool.
func TestCMTCapacityOne(t *testing.T) {
	c := NewCMT(1, 512)
	for i := int64(0); i < 10; i++ {
		c.Insert(i, nand.PPN(i*10), i%2 == 0)
		if c.NeedsEviction() {
			e, ok := c.EvictLRU()
			if !ok {
				t.Fatal("EvictLRU failed while over capacity")
			}
			if e.LPN != i-1 {
				t.Fatalf("evicted LPN %d, want %d", e.LPN, i-1)
			}
		}
		if c.Len() != 1 {
			t.Fatalf("Len = %d, want 1", c.Len())
		}
		if p, ok := c.Lookup(i); !ok || p != nand.PPN(i*10) {
			t.Fatalf("Lookup(%d) = %d,%v", i, p, ok)
		}
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen = %d after evicting all dirty entries", c.DirtyLen())
	}
}

// TestCMTPoolRecycling drives eviction and re-insert cycles well past the
// pool size and checks the node pool is reused instead of growing: the
// backing slice must never exceed capacity+1 slots.
func TestCMTPoolRecycling(t *testing.T) {
	const capn = 8
	c := NewCMT(capn, 512)
	for round := 0; round < 50; round++ {
		for i := 0; i < capn+1; i++ {
			lpn := int64(round*(capn+1) + i)
			c.Insert(lpn, nand.PPN(lpn), round%2 == 0)
			for c.NeedsEviction() {
				if _, ok := c.EvictLRU(); !ok {
					t.Fatal("EvictLRU failed")
				}
			}
		}
	}
	if got := len(c.nodes); got > capn+1 {
		t.Fatalf("node pool grew to %d slots, want <= %d", got, capn+1)
	}
	if c.Len() != capn {
		t.Fatalf("Len = %d, want %d", c.Len(), capn)
	}
}

// TestCMTEvictReinsertSameLPN checks an evicted LPN can come back cleanly
// (the demand-paging pattern: miss, fetch, insert).
func TestCMTEvictReinsertSameLPN(t *testing.T) {
	c := NewCMT(2, 512)
	c.Insert(1, 10, true)
	c.Insert(2, 20, false)
	c.Insert(3, 30, false)
	e, ok := c.EvictLRU()
	if !ok || e.LPN != 1 || !e.Dirty {
		t.Fatalf("evicted %+v, want dirty LPN 1", e)
	}
	c.Insert(1, 11, false)
	if p, ok := c.Lookup(1); !ok || p != 11 {
		t.Fatalf("re-inserted Lookup(1) = %d,%v", p, ok)
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen = %d, want 0 (re-insert was clean)", c.DirtyLen())
	}
	// Recency after re-insert: 2 is now LRU.
	if e, _ := c.EvictLRU(); e.LPN != 2 {
		t.Fatalf("evicted LPN %d, want 2", e.LPN)
	}
}

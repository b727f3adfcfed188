// Package mapping implements the DRAM-side address-translation structures
// shared by the demand-based FTLs: the cached mapping table (CMT) with LRU
// replacement and dirty tracking, and the global translation directory (GTD)
// that locates translation pages in flash.
package mapping

import (
	"learnedftl/internal/nand"
)

// Entry is one cached LPN→PPN mapping.
type Entry struct {
	LPN   int64
	PPN   nand.PPN
	Dirty bool
}

// nilNode marks an absent link in the intrusive LRU list.
const nilNode = int32(-1)

// cmtNode is one pooled LRU slot: an Entry plus intrusive prev/next links
// into the recency list and, while the entry is dirty, dprev/dnext links
// into its translation page's dirty list (indices into CMT.nodes,
// nilNode-terminated).
type cmtNode struct {
	entry        Entry
	prev, next   int32
	dprev, dnext int32
}

// CMT is the cached mapping table of DFTL (Gupta et al., ASPLOS'09): an LRU
// cache over individual page mappings. TPFTL and LearnedFTL reuse it with
// different capacities and write-back batching policies.
//
// The cache is a slice-backed intrusive LRU: nodes live in a preallocated
// pool and the recency list is threaded through pool indices, so the hot
// paths (Lookup hit, Insert update, EvictLRU + re-Insert) perform zero heap
// allocations. Only a cold miss that grows the index map can allocate.
//
// Every dirty entry is also threaded onto a per-translation-page dirty
// list, so the batched write-back of one translation page (CleanTP) costs
// O(dirty entries of that page) rather than one index probe per LPN.
type CMT struct {
	cap    int
	tpSize int64 // mappings per translation page
	nodes  []cmtNode
	index  map[int64]int32
	head   int32   // most recently used, nilNode when empty
	tail   int32   // least recently used, nilNode when empty
	free   int32   // free-list head threaded through next
	dhead  []int32 // per-TPN dirty-list head, grown on demand
	size   int
	dirty  int
}

// NewCMT returns a CMT holding at most capacity entries of a mapping table
// whose translation pages hold entriesPerTP mappings each. A non-positive
// capacity yields a cache that stores nothing (every lookup misses).
func NewCMT(capacity, entriesPerTP int) *CMT {
	c := &CMT{
		cap:    capacity,
		tpSize: int64(entriesPerTP),
		head:   nilNode,
		tail:   nilNode,
		free:   nilNode,
	}
	if capacity > 0 {
		// Callers may overshoot capacity by one entry before draining
		// NeedsEviction, hence the +1 slack in the pool and index.
		c.nodes = make([]cmtNode, 0, capacity+1)
		c.index = make(map[int64]int32, capacity+1)
	} else {
		c.index = make(map[int64]int32)
	}
	return c
}

// Cap returns the configured capacity in entries.
func (c *CMT) Cap() int { return c.cap }

// Len returns the number of cached entries.
func (c *CMT) Len() int { return c.size }

// DirtyLen returns the number of dirty entries.
func (c *CMT) DirtyLen() int { return c.dirty }

// alloc takes a node off the free list, growing the pool when exhausted.
func (c *CMT) alloc() int32 {
	if c.free != nilNode {
		n := c.free
		c.free = c.nodes[n].next
		return n
	}
	c.nodes = append(c.nodes, cmtNode{})
	return int32(len(c.nodes) - 1)
}

// unlink removes node n from the recency list (it stays in the pool).
func (c *CMT) unlink(n int32) {
	nd := &c.nodes[n]
	if nd.prev != nilNode {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != nilNode {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

// pushFront links node n as the most recently used.
func (c *CMT) pushFront(n int32) {
	nd := &c.nodes[n]
	nd.prev = nilNode
	nd.next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = n
	}
	c.head = n
	if c.tail == nilNode {
		c.tail = n
	}
}

// linkDirty pushes node n onto the dirty list of its translation page.
func (c *CMT) linkDirty(n int32) {
	tpn := int(c.nodes[n].entry.LPN / c.tpSize)
	for len(c.dhead) <= tpn {
		c.dhead = append(c.dhead, nilNode)
	}
	nd := &c.nodes[n]
	nd.dprev = nilNode
	nd.dnext = c.dhead[tpn]
	if nd.dnext != nilNode {
		c.nodes[nd.dnext].dprev = n
	}
	c.dhead[tpn] = n
	c.dirty++
}

// unlinkDirty removes node n from the dirty list of its translation page.
func (c *CMT) unlinkDirty(n int32) {
	nd := &c.nodes[n]
	if nd.dprev != nilNode {
		c.nodes[nd.dprev].dnext = nd.dnext
	} else {
		c.dhead[nd.entry.LPN/c.tpSize] = nd.dnext
	}
	if nd.dnext != nilNode {
		c.nodes[nd.dnext].dprev = nd.dprev
	}
	c.dirty--
}

// Lookup returns the cached mapping for lpn and promotes it to MRU.
func (c *CMT) Lookup(lpn int64) (nand.PPN, bool) {
	n, ok := c.index[lpn]
	if !ok {
		return nand.InvalidPPN, false
	}
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
	return c.nodes[n].entry.PPN, true
}

// Peek returns the cached mapping without touching recency.
func (c *CMT) Peek(lpn int64) (Entry, bool) {
	n, ok := c.index[lpn]
	if !ok {
		return Entry{}, false
	}
	return c.nodes[n].entry, true
}

// Contains reports whether lpn is cached, without touching recency.
func (c *CMT) Contains(lpn int64) bool {
	_, ok := c.index[lpn]
	return ok
}

// Insert adds or updates a mapping as MRU. It does not evict; callers must
// drain NeedsEviction/EvictLRU so they can perform the flash write-back that
// eviction of a dirty entry requires.
func (c *CMT) Insert(lpn int64, ppn nand.PPN, dirty bool) {
	if c.cap <= 0 {
		return
	}
	if n, ok := c.index[lpn]; ok {
		e := &c.nodes[n].entry
		e.PPN = ppn
		if e.Dirty != dirty {
			e.Dirty = dirty
			if dirty {
				c.linkDirty(n)
			} else {
				c.unlinkDirty(n)
			}
		}
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return
	}
	n := c.alloc()
	c.nodes[n].entry = Entry{LPN: lpn, PPN: ppn, Dirty: dirty}
	c.pushFront(n)
	c.index[lpn] = n
	c.size++
	if dirty {
		c.linkDirty(n)
	}
}

// NeedsEviction reports whether the cache is over capacity.
func (c *CMT) NeedsEviction() bool { return c.size > c.cap }

// EvictLRU removes and returns the least recently used entry.
func (c *CMT) EvictLRU() (Entry, bool) {
	if c.tail == nilNode {
		return Entry{}, false
	}
	return c.removeNode(c.tail), true
}

// Remove drops lpn from the cache if present, returning the removed entry.
func (c *CMT) Remove(lpn int64) (Entry, bool) {
	n, ok := c.index[lpn]
	if !ok {
		return Entry{}, false
	}
	return c.removeNode(n), true
}

// removeNode unlinks n, returns its entry to the caller and the node to the
// free list.
func (c *CMT) removeNode(n int32) Entry {
	e := c.nodes[n].entry
	if e.Dirty {
		c.unlinkDirty(n)
	}
	c.unlink(n)
	delete(c.index, e.LPN)
	c.nodes[n].next = c.free
	c.free = n
	c.size--
	return e
}

// MarkClean clears the dirty flag of lpn if cached.
func (c *CMT) MarkClean(lpn int64) {
	if n, ok := c.index[lpn]; ok {
		e := &c.nodes[n].entry
		if e.Dirty {
			e.Dirty = false
			c.unlinkDirty(n)
		}
	}
}

// CleanTP clears the dirty flag of every cached mapping of translation page
// tpn and returns how many it cleared. TPFTL-style batched write-back calls
// it after one read-modify-write has persisted the whole page. Recency is
// untouched; the cost is O(dirty entries of tpn) and a clean page is O(1).
func (c *CMT) CleanTP(tpn int) int {
	if tpn < 0 || tpn >= len(c.dhead) {
		return 0
	}
	cleared := 0
	for n := c.dhead[tpn]; n != nilNode; {
		nd := &c.nodes[n]
		nd.entry.Dirty = false
		n = nd.dnext
		cleared++
	}
	c.dhead[tpn] = nilNode
	c.dirty -= cleared
	return cleared
}

// Export returns the cached entries in LRU→MRU order. Re-Inserting them in
// that order into a fresh CMT of the same capacity reproduces the cache —
// contents, dirty flags and recency — exactly (device snapshots).
func (c *CMT) Export() []Entry {
	out := make([]Entry, 0, c.size)
	for n := c.tail; n != nilNode; n = c.nodes[n].prev {
		out = append(out, c.nodes[n].entry)
	}
	return out
}

// UpdatePPN rewrites the PPN of a cached entry without recency or dirty
// changes (GC relocation fix-up). Returns false if lpn is not cached.
func (c *CMT) UpdatePPN(lpn int64, ppn nand.PPN) bool {
	n, ok := c.index[lpn]
	if !ok {
		return false
	}
	c.nodes[n].entry.PPN = ppn
	return true
}

package nand

import (
	"testing"
	"testing/quick"
)

func testGeom() Geometry {
	return Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
}

func TestPaperGeometryMatchesPaper(t *testing.T) {
	g := PaperGeometry()
	if got := g.Chips(); got != 64 {
		t.Errorf("Chips() = %d, want 64", got)
	}
	if got := g.TotalPages(); got != 8388608 {
		t.Errorf("TotalPages() = %d, want 8388608 (paper Fig. 11)", got)
	}
	if got := g.TotalBytes(); got != 32<<30 {
		t.Errorf("TotalBytes() = %d, want 32 GiB", got)
	}
}

func TestScaledGeometryPreservesParallelism(t *testing.T) {
	for _, scale := range []int{1, 2, 8, 16, 1024} {
		g := ScaledGeometry(scale)
		if g.Chips() != 64 {
			t.Errorf("scale %d: Chips() = %d, want 64", scale, g.Chips())
		}
		if g.PagesPerBlock != 512 {
			t.Errorf("scale %d: PagesPerBlock = %d, want 512", scale, g.PagesPerBlock)
		}
		if g.BlocksPerUnit < 4 {
			t.Errorf("scale %d: BlocksPerUnit = %d, want >= 4", scale, g.BlocksPerUnit)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeom().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := testGeom()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-channel geometry accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	for ch := 0; ch < g.Channels; ch++ {
		for w := 0; w < g.Ways; w++ {
			for b := 0; b < g.BlocksPerUnit; b++ {
				for p := 0; p < g.PagesPerBlock; p++ {
					a := Addr{Channel: ch, Way: w, Block: b, Page: p}
					got := c.Decode(c.Encode(a))
					if got != a {
						t.Fatalf("Decode(Encode(%+v)) = %+v", a, got)
					}
				}
			}
		}
	}
}

func TestPPNRangeIsDense(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	seen := make(map[PPN]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for w := 0; w < g.Ways; w++ {
			for b := 0; b < g.BlocksPerUnit; b++ {
				for p := 0; p < g.PagesPerBlock; p++ {
					ppn := c.Encode(Addr{Channel: ch, Way: w, Block: b, Page: p})
					if ppn < 0 || int(ppn) >= g.TotalPages() {
						t.Fatalf("PPN %d out of range [0,%d)", ppn, g.TotalPages())
					}
					if seen[ppn] {
						t.Fatalf("PPN %d assigned twice", ppn)
					}
					seen[ppn] = true
				}
			}
		}
	}
	if len(seen) != g.TotalPages() {
		t.Fatalf("%d distinct PPNs, want %d", len(seen), g.TotalPages())
	}
}

// TestVPPNBijection is the core §III-C property: PPN→VPPN→PPN is identity,
// checked exhaustively on a small geometry and by quick.Check on paper scale.
func TestVPPNBijection(t *testing.T) {
	c := NewAddrCodec(testGeom())
	total := c.Geometry().TotalPages()
	seen := make(map[VPPN]bool, total)
	for p := PPN(0); int(p) < total; p++ {
		v := c.ToVirtual(p)
		if v < 0 || int(v) >= total {
			t.Fatalf("VPPN %d out of range for PPN %d", v, p)
		}
		if seen[v] {
			t.Fatalf("VPPN %d produced twice", v)
		}
		seen[v] = true
		if back := c.ToPhysical(v); back != p {
			t.Fatalf("ToPhysical(ToVirtual(%d)) = %d", p, back)
		}
	}
}

func TestVPPNBijectionQuickPaperScale(t *testing.T) {
	c := NewAddrCodec(PaperGeometry())
	total := int64(c.Geometry().TotalPages())
	f := func(seed int64) bool {
		p := PPN(((seed % total) + total) % total)
		return c.ToPhysical(c.ToVirtual(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestVPPNCodecMatchesFieldCodec pins the one-division conversions to the
// field-by-field definitions, ToVirtual = EncodeVirtual∘Decode and
// ToPhysical = Encode∘DecodeVirtual, for every page of the tiny and quick
// geometries and of one with Planes > 1 and no power-of-two field — the
// only one that exercises a non-identity plane order in the unit
// permutation.
func TestVPPNCodecMatchesFieldCodec(t *testing.T) {
	geoms := map[string]Geometry{
		"quick":  {Channels: 4, Ways: 4, Planes: 1, BlocksPerUnit: 32, PagesPerBlock: 512, PageSize: 4096},
		"tiny":   {Channels: 8, Ways: 8, Planes: 1, BlocksPerUnit: 16, PagesPerBlock: 64, PageSize: 4096},
		"planes": {Channels: 3, Ways: 5, Planes: 2, BlocksPerUnit: 7, PagesPerBlock: 11, PageSize: 4096},
	}
	for name, g := range geoms {
		c := NewAddrCodec(g)
		for i := 0; i < g.TotalPages(); i++ {
			if got, want := c.ToVirtual(PPN(i)), c.EncodeVirtual(c.Decode(PPN(i))); got != want {
				t.Fatalf("%s: ToVirtual(%d) = %d, want %d", name, i, got, want)
			}
			if got, want := c.ToPhysical(VPPN(i)), c.Encode(c.DecodeVirtual(VPPN(i))); got != want {
				t.Fatalf("%s: ToPhysical(%d) = %d, want %d", name, i, got, want)
			}
		}
		if c.ToVirtual(InvalidPPN) != InvalidVPPN || c.ToPhysical(InvalidVPPN) != InvalidPPN {
			t.Fatalf("%s: invalid sentinels not preserved", name)
		}
	}
}

// TestVPPNStripeContiguity checks the property the paper's learned index
// depends on: pages written round-robin across channels then ways at the
// same (block, page) position receive consecutive VPPNs.
func TestVPPNStripeContiguity(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	blk, pg := 3, 7
	var prev VPPN = -1
	for w := 0; w < g.Ways; w++ {
		for ch := 0; ch < g.Channels; ch++ {
			v := c.EncodeVirtual(Addr{Channel: ch, Way: w, Block: blk, Page: pg})
			if prev != -1 && v != prev+1 {
				t.Fatalf("stripe not contiguous: ch=%d way=%d VPPN=%d prev=%d", ch, w, v, prev)
			}
			prev = v
		}
	}
}

// TestVPPNPaperExample reproduces the shape of the paper's Fig. 12: three
// LPNs written to the same (plane, block, page) coordinates on adjacent
// chips have wildly separated PPNs but consecutive VPPNs.
func TestVPPNPaperExample(t *testing.T) {
	c := NewAddrCodec(PaperGeometry())
	a1 := Addr{Channel: 4, Way: 5, Plane: 0, Block: 64, Page: 127}
	a2 := Addr{Channel: 5, Way: 5, Plane: 0, Block: 64, Page: 127}
	a3 := Addr{Channel: 6, Way: 5, Plane: 0, Block: 64, Page: 127}
	p1, p2, p3 := c.Encode(a1), c.Encode(a2), c.Encode(a3)
	if p2-p1 == 1 || p3-p2 == 1 {
		t.Fatalf("PPNs unexpectedly contiguous: %d %d %d", p1, p2, p3)
	}
	v1, v2, v3 := c.EncodeVirtual(a1), c.EncodeVirtual(a2), c.EncodeVirtual(a3)
	if v2 != v1+1 || v3 != v2+1 {
		t.Fatalf("VPPNs not contiguous: %d %d %d", v1, v2, v3)
	}
}

func TestSuperblockVPPNBase(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	sb := c.SuperblockPages()
	if want := g.Chips() * g.Planes * g.PagesPerBlock; sb != want {
		t.Fatalf("SuperblockPages = %d, want %d", sb, want)
	}
	for blk := 0; blk < g.BlocksPerUnit; blk++ {
		base := c.SuperblockVPPNBase(blk)
		if int64(base) != int64(blk)*int64(sb) {
			t.Fatalf("block %d: base %d, want %d", blk, base, int64(blk)*int64(sb))
		}
		// Every VPPN in [base, base+sb) must decode to block blk.
		for _, off := range []int{0, 1, sb / 2, sb - 1} {
			a := c.DecodeVirtual(base + VPPN(off))
			if a.Block != blk {
				t.Fatalf("VPPN %d decodes to block %d, want %d", int64(base)+int64(off), a.Block, blk)
			}
		}
	}
}

// TestChipOfPPN checks the single-division shortcuts the flash and
// block-manager hot paths use against the full five-field Decode, for
// every PPN of the paper, quick and tiny geometries and of one geometry
// with no power-of-two field and Planes > 1.
func TestChipOfPPN(t *testing.T) {
	geoms := map[string]Geometry{
		"paper": PaperGeometry(),
		"quick": {Channels: 4, Ways: 4, Planes: 1, BlocksPerUnit: 32, PagesPerBlock: 512, PageSize: 4096},
		"tiny":  {Channels: 8, Ways: 8, Planes: 1, BlocksPerUnit: 16, PagesPerBlock: 64, PageSize: 4096},
		"odd":   {Channels: 3, Ways: 2, Planes: 2, BlocksPerUnit: 5, PagesPerBlock: 6, PageSize: 4096},
	}
	for name, g := range geoms {
		c := NewAddrCodec(g)
		for p := PPN(0); int(p) < g.TotalPages(); p++ {
			a := c.Decode(p)
			bid := c.BlockID(p)
			if got, want := c.Chip(p), a.Channel*g.Ways+a.Way; got != want {
				t.Fatalf("%s: Chip(%d) = %d, want %d", name, p, got, want)
			}
			if got, want := c.ChipOfBlock(bid), a.Channel*g.Ways+a.Way; got != want {
				t.Fatalf("%s: ChipOfBlock(%d) = %d, want %d", name, bid, got, want)
			}
			if got, want := c.BlockBase(bid), c.Encode(c.BlockAddr(bid)); got != want {
				t.Fatalf("%s: BlockBase(%d) = %d, want %d", name, bid, got, want)
			}
			if got := int(p - c.BlockBase(bid)); got != a.Page {
				t.Fatalf("%s: page offset of %d = %d, want %d", name, p, got, a.Page)
			}
			if got := bid % g.BlocksPerUnit; got != a.Block {
				t.Fatalf("%s: block-in-plane of %d = %d, want %d", name, p, got, a.Block)
			}
		}
	}

	// Program derives the page offset from the block base: on a block far
	// from PPN 0 it must still accept the in-order page and reject a skip.
	f := mustFlash(geoms["odd"])
	c := NewAddrCodec(geoms["odd"])
	base := c.BlockBase(c.Geometry().TotalBlocks() - 1)
	if _, err := f.Program(base, OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Program(base+2, OOB{}, 0, OpHostData); err == nil {
		t.Fatal("out-of-order program accepted")
	}
	if _, err := f.Program(base+1, OOB{}, 0, OpHostData); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidSentinelConversions(t *testing.T) {
	c := NewAddrCodec(testGeom())
	if c.ToVirtual(InvalidPPN) != InvalidVPPN {
		t.Error("ToVirtual(InvalidPPN) != InvalidVPPN")
	}
	if c.ToPhysical(InvalidVPPN) != InvalidPPN {
		t.Error("ToPhysical(InvalidVPPN) != InvalidPPN")
	}
}

func TestBlockIDAndBlockAddr(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	for bid := 0; bid < g.TotalBlocks(); bid++ {
		a := c.BlockAddr(bid)
		if a.Page != 0 {
			t.Fatalf("BlockAddr(%d).Page = %d", bid, a.Page)
		}
		p := c.Encode(a)
		if got := c.BlockID(p); got != bid {
			t.Fatalf("BlockID(Encode(BlockAddr(%d))) = %d", bid, got)
		}
	}
}

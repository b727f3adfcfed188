package nand

// PPN is a physical page number. It encodes the hierarchical position of a
// flash page by concatenating the address fields from the highest level of
// the hierarchy (channel) to the lowest (page):
//
//	PPN = (((chn·Ways + way)·Planes + pl)·Blocks + blk)·Pages + pg
//
// Consecutive PPNs therefore stay inside one block of one chip, which is why
// pages striped across chips by a parallel allocator get PPNs that are far
// apart (the paper's Challenge #2).
type PPN int64

// VPPN is a virtual physical page number (paper §III-C, Figs. 11-12). It is
// a bijective re-ordering of the PPN address fields into the page allocation
// order channel → chip → plane → page → block, the fastest allocation order
// per Hu et al. (ICS'11):
//
//	VPPN = ((((blk·Pages + pg)·Planes + pl)·Ways + way)·Channels + chn
//
// Consecutive VPPNs walk across channels first, then ways, so a stripe
// written in parallel across all chips occupies *contiguous* VPPNs — exactly
// what a learned index needs to fit sorted LPNs with a linear model.
type VPPN int64

// InvalidPPN marks "no mapping". The zero PPN is a real page, so mapping
// tables must be initialized with InvalidPPN, not zero values.
const InvalidPPN PPN = -1

// InvalidVPPN is the VPPN analogue of InvalidPPN.
const InvalidVPPN VPPN = -1

// Addr is a fully decomposed flash page address.
type Addr struct {
	Channel int
	Way     int
	Plane   int
	Block   int
	Page    int
}

// AddrCodec converts between Addr, PPN and VPPN for a fixed geometry.
// It is a value type; copy freely (copies share the read-only unit
// tables). Its methods take a pointer so the hot paths that convert
// through a device's codec field never copy the struct.
//
// Both page numbers split into a plane unit — one (channel, way, plane)
// triple — and the page's offset blk·Pages + pg inside its plane:
//
//	PPN  = unit·(Blocks·Pages) + off,  unit  = (chn·Ways + way)·Planes + pl
//	VPPN = off·Units + unit′,          unit′ = (pl·Ways + way)·Channels + chn
//
// so a conversion is one division plus a lookup in a unit permutation
// table, rather than a full Decode and re-encode.
type AddrCodec struct {
	g         Geometry
	unitPages int64   // Blocks·Pages: PPNs per plane unit
	units     int64   // plane units on the device
	toV, toP  []int32 // unit → unit′ and its inverse
}

// NewAddrCodec returns a codec for geometry g.
func NewAddrCodec(g Geometry) AddrCodec {
	c := AddrCodec{
		g:         g,
		unitPages: int64(g.BlocksPerUnit) * int64(g.PagesPerBlock),
		units:     int64(g.Units()),
	}
	if c.units <= 0 {
		// A geometry Validate rejects. core.SpareRows sizes configs
		// through a codec before anything validates them, so build one
		// without tables rather than panic; converting through it is
		// invalid.
		return c
	}
	c.toV = make([]int32, c.units)
	c.toP = make([]int32, c.units)
	for chn := 0; chn < g.Channels; chn++ {
		for way := 0; way < g.Ways; way++ {
			for pl := 0; pl < g.Planes; pl++ {
				u := (chn*g.Ways+way)*g.Planes + pl
				v := (pl*g.Ways+way)*g.Channels + chn
				c.toV[u], c.toP[v] = int32(v), int32(u)
			}
		}
	}
	return c
}

// Geometry returns the geometry the codec was built for.
func (c *AddrCodec) Geometry() Geometry { return c.g }

// Encode packs an address into a PPN.
func (c *AddrCodec) Encode(a Addr) PPN {
	g := c.g
	v := ((int64(a.Channel)*int64(g.Ways)+int64(a.Way))*int64(g.Planes)+
		int64(a.Plane))*int64(g.BlocksPerUnit) + int64(a.Block)
	return PPN(v*int64(g.PagesPerBlock) + int64(a.Page))
}

// Decode unpacks a PPN into its address fields.
func (c *AddrCodec) Decode(p PPN) Addr {
	g := c.g
	v := int64(p)
	var a Addr
	a.Page = int(v % int64(g.PagesPerBlock))
	v /= int64(g.PagesPerBlock)
	a.Block = int(v % int64(g.BlocksPerUnit))
	v /= int64(g.BlocksPerUnit)
	a.Plane = int(v % int64(g.Planes))
	v /= int64(g.Planes)
	a.Way = int(v % int64(g.Ways))
	v /= int64(g.Ways)
	a.Channel = int(v)
	return a
}

// EncodeVirtual packs an address into a VPPN following the allocation order
// channel → way → plane → page → block.
func (c *AddrCodec) EncodeVirtual(a Addr) VPPN {
	g := c.g
	v := ((int64(a.Block)*int64(g.PagesPerBlock)+int64(a.Page))*int64(g.Planes)+
		int64(a.Plane))*int64(g.Ways) + int64(a.Way)
	return VPPN(v*int64(g.Channels) + int64(a.Channel))
}

// DecodeVirtual unpacks a VPPN into its address fields.
func (c *AddrCodec) DecodeVirtual(v VPPN) Addr {
	g := c.g
	x := int64(v)
	var a Addr
	a.Channel = int(x % int64(g.Channels))
	x /= int64(g.Channels)
	a.Way = int(x % int64(g.Ways))
	x /= int64(g.Ways)
	a.Plane = int(x % int64(g.Planes))
	x /= int64(g.Planes)
	a.Page = int(x % int64(g.PagesPerBlock))
	x /= int64(g.PagesPerBlock)
	a.Block = int(x)
	return a
}

// ToVirtual converts a PPN to the equivalent VPPN: EncodeVirtual(Decode(p))
// in one division.
func (c *AddrCodec) ToVirtual(p PPN) VPPN {
	if p == InvalidPPN {
		return InvalidVPPN
	}
	unit := int64(p) / c.unitPages
	off := int64(p) - unit*c.unitPages
	return VPPN(off*c.units + int64(c.toV[unit]))
}

// ToPhysical converts a VPPN back to the PPN of the same physical page:
// Encode(DecodeVirtual(v)) in one division.
func (c *AddrCodec) ToPhysical(v VPPN) PPN {
	if v == InvalidVPPN {
		return InvalidPPN
	}
	off := int64(v) / c.units
	unit := int64(v) - off*c.units
	return PPN(int64(c.toP[unit])*c.unitPages + off)
}

// Chip returns the parallel-unit index (channel*Ways + way) of a PPN.
// Operations on the same chip serialize; different chips proceed in parallel.
// Channel and way are the top fields of a PPN, so the chip is one quotient.
func (c *AddrCodec) Chip(p PPN) int {
	g := c.g
	return int(int64(p) / (int64(g.PagesPerBlock) * int64(g.BlocksPerUnit) * int64(g.Planes)))
}

// ChipOfBlock returns the chip holding the device-wide block blockID.
func (c *AddrCodec) ChipOfBlock(blockID int) int {
	return blockID / (c.g.BlocksPerUnit * c.g.Planes)
}

// BlockBase returns the PPN of page 0 of the device-wide block blockID.
func (c *AddrCodec) BlockBase(blockID int) PPN {
	return PPN(int64(blockID) * int64(c.g.PagesPerBlock))
}

// BlockID returns the device-wide block index of the block containing p.
func (c *AddrCodec) BlockID(p PPN) int {
	return int(int64(p) / int64(c.g.PagesPerBlock))
}

// BlockAddr returns the address of page 0 of the device-wide block blockID.
func (c *AddrCodec) BlockAddr(blockID int) Addr {
	return c.Decode(c.BlockBase(blockID))
}

// SuperblockVPPNBase returns the first VPPN of the superblock stripe that
// uses block index blk in every plane of every chip. A superblock's VPPNs
// are contiguous: [base, base + Chips()*Planes*PagesPerBlock).
func (c *AddrCodec) SuperblockVPPNBase(blk int) VPPN {
	return c.EncodeVirtual(Addr{Block: blk})
}

// SuperblockPages returns the number of pages in one superblock stripe.
func (c *AddrCodec) SuperblockPages() int {
	return c.g.Chips() * c.g.Planes * c.g.PagesPerBlock
}

// Package tiling implements the Tiling Engine of the TBR GPU (§II-A/B): the
// screen tile grid, the Morton (Z-order) and Hilbert traversal orders, the
// Polygon List Builder that bins primitives into per-tile lists stored in the
// Parameter Buffer, and the supertile aggregation of §III-C.
package tiling

// MortonEncode interleaves the bits of x and y into a Z-order code
// (x in even positions, y in odd).
func MortonEncode(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// MortonDecode is the inverse of MortonEncode.
func MortonDecode(code uint64) (x, y uint32) {
	return compact(code), compact(code >> 1)
}

func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

func compact(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

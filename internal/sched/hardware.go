package sched

// This file models the hardware cost of LIBRA's scheduler (§III-E): the
// ranking-table storage and the cycle count of the O(n log n) in-place
// ranking logic, used to verify that ranking hides under the Geometry
// Pipeline.

import "math"

// RankTableEntryBits is the storage per supertile entry: 16 bits of memory
// accesses, 24 bits of instruction count, 15 bits of accesses-per-
// instruction, 9 bits of supertile id (§III-E).
const RankTableEntryBits = 16 + 24 + 15 + 9 // = 64

// RankTableBytes returns the on-chip buffer size for n supertiles.
func RankTableBytes(n int) int { return n * RankTableEntryBits / 8 }

// RankingCycles returns the §III-E upper bound for ranking n supertiles:
// n·log2(n) compare-and-swap steps at 3 cycles each (two reads, one compare,
// overlapped writes).
func RankingCycles(n int) int64 {
	if n <= 1 {
		return 0
	}
	comparisons := float64(n) * math.Log2(float64(n))
	return int64(3 * math.Ceil(comparisons))
}

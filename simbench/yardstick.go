package main

// The guest this benchmark runs on shares its machine, and its speed drifts
// with the other tenants' load: the same SuS frame has taken from ~95 ms to
// ~190 ms of CPU time on one day. CPU time excludes steal, not a slower
// memory system. So a run times a fixed piece of work, the yardstick, after
// every op, and multiplies every host time it reports by yardstickRefMS over
// the yardstick's median time in the run: the time on a host running at the
// reference guest's speed.
//
// The yardstick is a set-associative LRU cache model fed a fixed address
// stream (tag compares, LRU stamps, branches, a 96 KB table), the kind of
// work the simulator's memory model and tile loops do. Timed in turn with
// the ops, its time followed theirs in proportion where a pure multiply loop
// moved half as much (README.md). It shares no code with the program, so a
// change to the program cannot move it.

const (
	yardSets     = 1024
	yardWays     = 8
	yardAccesses = 1 << 16

	// yardstickRefMS is the yardstick's median time on the reference guest
	// when this benchmark was defined; a run whose yardstick takes this long
	// reports its host times unscaled.
	yardstickRefMS = 2.9
)

// yardstick holds the cache model's tables; one is built per run.
type yardstick struct {
	tags  [yardSets * yardWays]uint64 // line address + 1; 0 is an empty way
	stamp [yardSets * yardWays]uint32 // last use, for LRU
	hits  int                         // keeps the work observable
}

// millis runs the yardstick once from empty tables and returns the calling
// thread's CPU time for it in milliseconds. The thread clock leaves out the
// Go runtime's GC workers, so garbage the program leaves behind cannot slow
// the yardstick and flatter the program's scaled times. The caller keeps its
// goroutine on one thread (runtime.LockOSThread).
func (y *yardstick) millis() float64 {
	t0 := threadCPUTime()
	clear(y.tags[:])
	clear(y.stamp[:])
	s := uint64(99)
	next := uint64(0)
	for clk := uint32(1); clk <= yardAccesses; clk++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		// Three accesses in four stream through 4 MB, one in four lands
		// anywhere in 16 MB.
		var line uint64
		if s&3 != 0 {
			next++
			line = next & (1<<16 - 1)
		} else {
			line = s >> 8 & (1<<18 - 1)
		}
		set := int(line%yardSets) * yardWays
		tags, stamp := y.tags[set:set+yardWays], y.stamp[set:set+yardWays]
		victim := 0
		hit := false
		for w := range tags {
			if tags[w] == line+1 {
				stamp[w] = clk
				hit = true
				break
			}
			if stamp[w] < stamp[victim] {
				victim = w
			}
		}
		if hit {
			y.hits++
		} else {
			tags[victim], stamp[victim] = line+1, clk
		}
	}
	return float64((threadCPUTime() - t0).Nanoseconds()) / 1e6
}

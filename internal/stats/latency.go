package stats

// LatencyTracker accumulates a latency distribution in logarithmic buckets —
// cheap enough to run on every memory access, precise enough for p50/p95/p99
// reporting.
type LatencyTracker struct {
	buckets [64]uint64 // bucket i holds latencies in [2^i, 2^(i+1))
	count   uint64
	sum     uint64
	max     int64
}

// Record adds one latency sample (negative samples count as zero).
func (t *LatencyTracker) Record(lat int64) {
	if lat < 0 {
		lat = 0
	}
	t.buckets[bucketOf(lat)]++
	t.count++
	t.sum += uint64(lat)
	if lat > t.max {
		t.max = lat
	}
}

func bucketOf(lat int64) int {
	b := 0
	for v := lat; v > 1 && b < 63; v >>= 1 {
		b++
	}
	return b
}

// Mean returns the mean latency.
func (t *LatencyTracker) Mean() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.sum) / float64(t.count)
}

// Max returns the largest recorded latency.
func (t *LatencyTracker) Max() int64 { return t.max }

// Percentile returns an upper bound of the latency at quantile q in [0, 1]
// (bucket resolution: powers of two).
func (t *LatencyTracker) Percentile(q float64) int64 {
	if t.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(t.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range t.buckets {
		seen += c
		if seen >= target {
			// Upper edge of the bucket.
			if i >= 63 {
				return t.max
			}
			hi := int64(1) << uint(i+1)
			if hi > t.max && t.max > 0 {
				return t.max
			}
			return hi
		}
	}
	return t.max
}

// Merge adds another tracker's samples into t.
func (t *LatencyTracker) Merge(o *LatencyTracker) {
	for i := range t.buckets {
		t.buckets[i] += o.buckets[i]
	}
	t.count += o.count
	t.sum += o.sum
	if o.max > t.max {
		t.max = o.max
	}
}

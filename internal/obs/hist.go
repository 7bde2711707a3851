package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two buckets: bucket b counts
// durations d with bits.Len64(d ns) == b, i.e. d in [2^(b-1), 2^b) ns.
// 64 buckets cover every representable duration.
const histBuckets = 64

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Record is two atomic adds (the observation count is derived by summing
// buckets); Snapshot reads are not atomic across buckets but every
// individual bucket and the sum are monotone, so concurrent snapshots are
// consistent enough for percentile reporting.
type Histogram struct {
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds k observations of d each.
func (h *Histogram) RecordN(d time.Duration, k int64) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns * k)
	h.buckets[bits.Len64(uint64(ns))%histBuckets].Add(k)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	var n int64
	for b := range h.buckets {
		n += h.buckets[b].Load()
	}
	return n
}

// HistSnapshot is a point-in-time view of a Histogram.
type HistSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"` // upper bound of the top nonempty bucket

	// buckets holds the raw per-bucket counts: the Prometheus encoder in
	// prom.go maps them to cumulative le buckets.
	buckets [histBuckets]int64
}

// Snapshot captures counts and computes approximate percentiles (each
// bucket is represented by its geometric midpoint, so values are within
// 2× of the true percentile — ample for the order-of-magnitude claims the
// harness reports).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for b := range s.buckets {
		s.buckets[b] = h.buckets[b].Load()
		s.Count += s.buckets[b]
	}
	counts := s.buckets
	s.Sum = time.Duration(h.sum.Load())
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / time.Duration(s.Count)
	s.P50 = quantile(&counts, s.Count, 0.50)
	s.P90 = quantile(&counts, s.Count, 0.90)
	s.P99 = quantile(&counts, s.Count, 0.99)
	for b := histBuckets - 1; b >= 0; b-- {
		if counts[b] > 0 {
			s.Max = bucketUpper(b)
			break
		}
	}
	return s
}

// quantile returns the representative duration of the bucket holding the
// q-th observation.
func quantile(counts *[histBuckets]int64, total int64, q float64) time.Duration {
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for b := range counts {
		cum += counts[b]
		if cum > rank {
			return bucketMid(b)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketMid is the geometric midpoint of bucket b's range [2^(b-1), 2^b).
func bucketMid(b int) time.Duration {
	if b <= 1 {
		return time.Duration(b) // 0 ns or 1 ns
	}
	return time.Duration(int64(3) << (b - 2)) // 1.5 * 2^(b-1)
}

func bucketUpper(b int) time.Duration {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(int64(1) << b)
}

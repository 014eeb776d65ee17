package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"
)

// histBuckets covers every representable non-negative duration: bucket 0
// holds exactly 0ns, bucket i (i >= 1) holds [2^(i-1), 2^i - 1] ns. The
// boundaries are fixed powers of two (HDR-style log scale), so recording
// needs no configuration, no floating point, and no allocation.
const histBuckets = 64

// Histogram is the one bucketed latency distribution: fixed log-scale
// bucket counts plus the exact count, sum and max. It is a plain value —
// copy it, Merge it, compare it with == — and the zero value is ready to
// use. It is not safe for concurrent use: its owners (Recorder,
// sketch.Sketch) mutate it under their own lock and hand out copies, so
// every number read off one copy describes the same instant. Quantile
// estimates are exact to within one bucket (the reported value is the
// bucket's upper bound, at most 2x the true value for latencies >= 1ns).
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64 // nanoseconds
	max    int64 // nanoseconds
}

// histBucketOf returns the index of the single bucket containing d.
// Negative durations (clock anomalies) are clamped into bucket 0.
func histBucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// HistBucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds: 0 for bucket 0, 2^i - 1 otherwise.
func HistBucketUpper(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return time.Duration(int64(1)<<62 - 1 + int64(1)<<62) // MaxInt64
	}
	return time.Duration(int64(1)<<uint(i) - 1)
}

// Observe records one duration. Allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[histBucketOf(d)]++
	h.count++
	if d < 0 {
		d = 0
	}
	h.sum += int64(d)
	h.max = max(h.max, int64(d))
}

// Merge folds o's samples into h: afterwards h is the histogram of both
// sample streams.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Count returns the number of recorded durations.
func (h Histogram) Count() uint64 { return h.count }

// Sum returns the total of all recorded durations.
func (h Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Max returns the largest recorded duration.
func (h Histogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the average recorded duration (0 when empty).
func (h Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum) / h.count)
}

// Buckets returns the per-bucket counts.
func (h Histogram) Buckets() [histBuckets]uint64 { return h.counts }

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// durations: the upper bound of the bucket holding the rank-ceil(q*n)
// smallest sample, clamped to the exact maximum so high quantiles never
// exceed Max. Returns 0 when empty.
func (h Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := uint64(math.Ceil(q * float64(h.count)))
	rank = min(max(rank, 1), h.count)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return min(HistBucketUpper(i), h.Max())
		}
	}
	return h.Max()
}

// WritePrometheus appends the histogram's series in the Prometheus text
// exposition format (version 0.0.4): cumulative name_bucket lines up to
// the highest populated bucket, the +Inf bucket, name_sum and name_count,
// in seconds. labels is either empty or one or more rendered pairs
// (`stage="plan"`) that every series carries. The caller writes the
// family's HELP and TYPE lines.
func (h Histogram) WritePrometheus(b *strings.Builder, name, labels string) {
	sep, braced := "", ""
	if labels != "" {
		sep, braced = ",", "{"+labels+"}"
	}
	top := 0
	for i, c := range h.counts {
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, FormatSeconds(HistBucketUpper(i)), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced, FormatSeconds(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced, h.count)
}

// FormatSeconds renders a duration in seconds for the exposition format.
func FormatSeconds(d time.Duration) string { return formatFloat(d.Seconds()) }

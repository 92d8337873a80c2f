package main

import (
	"math/bits"
	"sort"

	"spacecdn/internal/stats"
)

// hist is a log-linear histogram of non-negative integers: exact below 256,
// then 128 buckets per octave (bucket width under 0.8 % of its value). The
// client loops record every latency and every simulated RTT into one, so a
// run's memory does not grow with its request count and recording allocates
// nothing.
type hist struct {
	counts []uint64
	n      uint64
}

const histBuckets = 48 * 128 // covers values up to 2^54

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histBucket(v int64) int {
	if v < 128 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8
	idx := e*128 + int(v>>uint(e))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the lowest value of a bucket and its width.
func histBounds(idx int) (low, width float64) {
	if idx < 256 {
		return float64(idx), 1
	}
	e := idx/128 - 1
	m := idx%128 + 128
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates linearly inside the bucket holding rank q·(n-1).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			low, width := histBounds(i)
			return low + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}

// beyond counts the samples above quantile q, the number a reported
// percentile has to be judged by.
func (h *hist) beyond(q float64) int64 {
	return int64(float64(h.n) * (1 - q))
}

// summary is a median with the range and the values it was taken over.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values,omitempty"`
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	return summary{Median: stats.Median(vals), Min: stats.Min(vals), Max: stats.Max(vals), Values: vals}
}

// spread is the distance between the first and third quartile as a share of
// the median — the quantity compared against a metric's bound. Quartiles are
// taken as Python's statistics.quantiles(values, n=4) takes them, so the
// number matches what the benchmark driver computes over its runs.
func (s summary) spread() float64 {
	if s.Median == 0 || len(s.Values) < 2 {
		return 0
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(sorted)+1) / 4 // 1-based, exclusive method
		lo := int(pos)
		switch {
		case lo < 1:
			return sorted[0]
		case lo >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[lo-1] + (sorted[lo]-sorted[lo-1])*(pos-float64(lo))
	}
	return (quartile(3) - quartile(1)) / s.Median
}

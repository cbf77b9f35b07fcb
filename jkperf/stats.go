package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: 128 sub-buckets per power of
// two, so any quantile it reports is within 0.8% of the true sample.
// Values are nanoseconds (or any non-negative count).
type hist struct {
	n int64
	b []int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMax     = int64(1) << 40 // ~18 minutes in ns; larger values clamp
	histBuckets = (40-histSubBits+2)*histSub + 1
)

func newHist() *hist { return &hist{b: make([]int64, histBuckets)} }

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= histMax {
		v = histMax - 1
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	oct := bits.Len64(u) - histSubBits
	sub := (u >> uint(oct-1)) & (histSub - 1)
	return oct*histSub + int(sub)
}

// histLow is the smallest value that maps to bucket i.
func histLow(i int) float64 {
	oct, sub := i/histSub, i%histSub
	if oct == 0 {
		return float64(sub)
	}
	return float64(uint64(histSub+sub) << uint(oct-1))
}

func (h *hist) add(v int64)           { h.addN(v, 1) }
func (h *hist) addN(v int64, w int64) { h.n += w; h.b[histIndex(v)] += w }

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile interpolates the q-quantile inside its bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*float64(rank-seen)/float64(c+1)
		}
		seen += c
	}
	return float64(histMax)
}

// median returns the middle of xs (mean of the two middles); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail: a tail
// percentile is the highest one (capped at the one asked for) that still
// has at least this many samples above it.
const minBeyond = 10

// dist summarizes one latency (or duration) sample set in nanoseconds.
type dist struct {
	N int
	// P50 is the median; Tail is the value at TailPct, the highest
	// percentile <= the requested one with at least minBeyond samples
	// beyond it (0 when N <= minBeyond).
	P50, Tail int64
	TailPct   float64
	Max       int64
}

// tailRank returns the 0-based index into n ascending samples of the
// nearest-rank percentile want, lowered until at least minBeyond samples
// lie beyond it, and the percentile that index represents. ok is false
// when n is too small to leave minBeyond samples beyond any rank.
func tailRank(n int, want float64) (idx int, pct float64, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	idx = int(math.Ceil(want/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if hi := n - 1 - minBeyond; idx > hi {
		idx = hi
	}
	return idx, 100 * float64(idx+1) / float64(n), true
}

// summarize sorts xs in place and returns its median and tail at want
// (e.g. 99).
func summarize(xs []int64, want float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	d.P50 = xs[(len(xs)-1)/2]
	d.Max = xs[len(xs)-1]
	if idx, pct, ok := tailRank(len(xs), want); ok {
		d.Tail, d.TailPct = xs[idx], pct
	}
	return d
}

// describe renders a distribution for the human-readable report.
func (d dist) describe(scale float64, unit string) string {
	if d.N == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %.4g %s, p%.4g %.4g %s, max %.4g %s (%d samples)",
		float64(d.P50)/scale, unit, d.TailPct, float64(d.Tail)/scale, unit, float64(d.Max)/scale, unit, d.N)
}

// medianFloat returns the median of xs (sorting a copy); 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// stageTolerance is the share of remind_p50_ms by which the sum of the
// three stage medians (transport + plan + writeback) may differ from the
// end-to-end median of the same traced requests. The stages partition
// each request exactly, so the only gap is that a sum of medians is not
// the median of sums.
const stageTolerance = 0.25

// stageSumOK reports whether stage medians account for the end-to-end
// median within stageTolerance, and the ratio sum/median.
func stageSumOK(stageMedians []float64, e2eMedian float64) (ratio float64, ok bool) {
	if e2eMedian <= 0 {
		return 0, false
	}
	sum := 0.0
	for _, m := range stageMedians {
		sum += m
	}
	ratio = sum / e2eMedian
	return ratio, math.Abs(ratio-1) <= stageTolerance
}

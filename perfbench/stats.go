package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of sorted samples by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailQuantile applies the percentile rule: it returns the highest
// quantile no higher than want that has at least minBeyond samples beyond
// it, and that quantile's value. ok is false when even the median has
// fewer than minBeyond samples beyond it.
func tailQuantile(sorted []float64, want float64) (q, v float64, ok bool) {
	n := float64(len(sorted))
	if n == 0 {
		return 0, math.NaN(), false
	}
	q = min(want, 1-minBeyond/n)
	if q < 0.5 {
		return q, math.NaN(), false
	}
	return q, quantile(sorted, q), true
}

// dist summarizes one timing: its samples sorted, ready for quantiles.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int              { return len(d.sorted) }
func (d dist) p(q float64) float64 { return quantile(d.sorted, q) }

func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range d.sorted {
		sum += x
	}
	return sum / float64(len(d.sorted))
}

// timing is how a timing is reported: median, the tail by the percentile
// rule, and the sample count.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
	Mean  float64 `json:"mean"`
}

// timing reports the median, mean and tail of d; with too few samples for
// any tail the tail fields stay zero.
func (d dist) timing(wantTail float64) timing {
	if d.n() == 0 {
		return timing{}
	}
	t := timing{N: d.n(), P50: d.p(0.5), Mean: d.mean()}
	if q, v, ok := tailQuantile(d.sorted, wantTail); ok {
		t.TailQ, t.Tail = q, v
	}
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50 %.4g  p%.4g %.4g  mean %.4g  (n=%d)", t.P50, 100*t.TailQ, t.Tail, t.Mean, t.N)
}

// median of unsorted values.
func median(xs []float64) float64 { return newDist(xs).p(0.5) }

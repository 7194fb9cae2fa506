package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Round(p*float64(len(s)-1)))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

// sliced cuts a phase's windows into slices of about a second and
// holds, per slice, the values whose key time falls inside it. A number
// reported from a phase is the midmean across slices of the per-slice
// statistic (see midmean), so one neighbour's hiccup on a shared box
// moves one slice, not the number.
type sliced struct {
	width  int64 // every slice's length in ns
	starts []int64
	vals   [][]float64
}

// newSliced cuts each window (all of one length) into whole-second
// slices, and into no fewer than two.
func newSliced(ws []window) *sliced {
	s := &sliced{}
	for _, w := range ws {
		n := max(2, (w.end-w.start)/int64(time.Second))
		s.width = (w.end - w.start) / n
		for k := int64(0); k < n; k++ {
			s.starts = append(s.starts, w.start+k*s.width)
		}
	}
	s.vals = make([][]float64, len(s.starts))
	return s
}

func (s *sliced) add(at int64, v float64) {
	for k, start := range s.starts {
		if at >= start && at < start+s.width {
			s.vals[k] = append(s.vals[k], v)
			return
		}
	}
}

// over applies stat to every non-empty slice and returns the midmean of
// the results.
func (s *sliced) over(stat func([]float64) float64) float64 {
	var per []float64
	for _, v := range s.vals {
		if len(v) > 0 {
			per = append(per, stat(v))
		}
	}
	return midmean(per)
}

// midmean is the mean of the middle half: the lowest and the highest
// quarter of the values are dropped. Like the median it ignores a few
// wild slices; unlike the median it does not jump when the slices fall
// into two groups.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	drop := len(s) / 4
	return mean(s[drop : len(s)-drop])
}

func (s *sliced) count() int {
	n := 0
	for _, v := range s.vals {
		n += len(v)
	}
	return n
}

func p50(xs []float64) float64 { return percentile(xs, 0.50) }
func p99(xs []float64) float64 { return percentile(xs, 0.99) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

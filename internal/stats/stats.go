// Package stats provides the summary statistics used by the experiment
// harness, most importantly the box-whisker summary the paper's Fig. 6 uses.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Box is the five-number summary plus outliers, with the whisker convention
// the paper states for Fig. 6: whiskers extend to the most extreme samples
// within [Q1 - 1.5*IQR, Q3 + 1.5*IQR]; samples outside are outliers.
type Box struct {
	Min      float64 // lower whisker end
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64 // upper whisker end
	Outliers []float64
	N        int
}

// NewBox computes the box-whisker summary of xs.
func NewBox(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	b := Box{
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		N:      len(sorted),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr

	b.Min = math.Inf(1)
	b.Max = math.Inf(-1)
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.Min {
			b.Min = x
		}
		if x > b.Max {
			b.Max = x
		}
	}
	if math.IsInf(b.Min, 1) { // every sample was an outlier (degenerate)
		b.Min, b.Max = sorted[0], sorted[len(sorted)-1]
		b.Outliers = nil
	}
	// Whiskers never retreat inside the box (the matplotlib convention when
	// every sample on one side is an outlier of the interpolated quartile).
	if b.Min > b.Q1 {
		b.Min = b.Q1
	}
	if b.Max < b.Q3 {
		b.Max = b.Q3
	}
	return b
}

// String renders the box compactly for table output.
func (b Box) String() string {
	return fmt.Sprintf("min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f out=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, len(b.Outliers))
}

// RelChange returns (b-a)/a, the relative change from a to b, or 0 when a is 0.
func RelChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

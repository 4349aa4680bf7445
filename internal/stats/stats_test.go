package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{5}, want: 5},
		{name: "several", give: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", give: []float64{-2, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

// stdDev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

func TestStdDev(t *testing.T) {
	if got := stdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138) > 0.01 {
		t.Errorf("stdDev = %v, want ~2.138", got)
	}
	if stdDev([]float64{1}) != 0 {
		t.Error("stdDev of one sample should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile of empty slice should be 0")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestNewBoxBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := NewBox(xs)
	if b.Median != 5 {
		t.Errorf("Median = %v, want 5", b.Median)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("Q1,Q3 = %v,%v, want 3,7", b.Q1, b.Q3)
	}
	if b.Min != 1 || b.Max != 9 {
		t.Errorf("whiskers = %v,%v, want 1,9", b.Min, b.Max)
	}
	if len(b.Outliers) != 0 {
		t.Errorf("Outliers = %v, want none", b.Outliers)
	}
	if b.N != 9 {
		t.Errorf("N = %d, want 9", b.N)
	}
}

func TestNewBoxOutliers(t *testing.T) {
	// IQR fences: Q1=2.75, Q3=5.25, IQR=2.5 -> [-1, 9]; 100 is an outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 100}
	b := NewBox(xs)
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.Max != 6 {
		t.Errorf("upper whisker = %v, want 6 (outlier excluded)", b.Max)
	}
}

func TestNewBoxEmpty(t *testing.T) {
	b := NewBox(nil)
	if b.N != 0 {
		t.Error("empty box should have N=0")
	}
}

func TestRelChange(t *testing.T) {
	if got := RelChange(100, 80); got != -0.2 {
		t.Errorf("RelChange(100,80) = %v, want -0.2", got)
	}
	if RelChange(0, 5) != 0 {
		t.Error("RelChange from 0 should be 0")
	}
}

// Property: the box invariant min <= Q1 <= median <= Q3 <= max holds, and
// outliers lie strictly outside the whiskers.
func TestBoxInvariantProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		b := NewBox(xs)
		if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			return false
		}
		for _, o := range b.Outliers {
			if o >= b.Min && o <= b.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p and bounded by the data range.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1, p2 := float64(pa%101), float64(pb%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		return v1 <= v2 && v1 >= sorted[0] && v2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentileEdgeRanks(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"p0-is-min", []float64{5, 1, 9, 3}, 0, 1},
		{"p100-is-max", []float64{5, 1, 9, 3}, 100, 9},
		{"negative-p-clamps-to-min", []float64{5, 1, 9, 3}, -10, 1},
		{"over-100-clamps-to-max", []float64{5, 1, 9, 3}, 250, 9},
		{"single-element-any-p", []float64{42}, 37, 42},
		{"single-element-p0", []float64{42}, 0, 42},
		{"single-element-p100", []float64{42}, 100, 42},
		{"empty", nil, 50, 0},
		{"integer-rank-no-interp", []float64{10, 20, 30, 40, 50}, 50, 30},
		{"interp-between-ranks", []float64{10, 20}, 50, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
}

func TestNewBoxDegenerate(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want Box
	}{
		// n < 4: quartiles interpolate over a tiny sample; no outliers
		// possible because the fences always contain the data.
		{"n1", []float64{7}, Box{Min: 7, Q1: 7, Median: 7, Q3: 7, Max: 7, N: 1}},
		{"n2", []float64{2, 6}, Box{Min: 2, Q1: 3, Median: 4, Q3: 5, Max: 6, N: 2}},
		{"n3", []float64{1, 2, 9}, Box{Min: 1, Q1: 1.5, Median: 2, Q3: 5.5, Max: 9, N: 3}},
		// Lower whisker clamp: Q1 = 75, but the smallest inside-fence sample
		// is 100 > Q1, so Min retreats to Q1 rather than sitting above the box.
		{"lower-whisker-clamp", []float64{0, 100, 100, 100},
			Box{Min: 75, Q1: 75, Median: 100, Q3: 100, Max: 100, Outliers: []float64{0}, N: 4}},
		// Mirror image: Q3 = 25, largest inside sample 0 < Q3, Max clamps up.
		{"upper-whisker-clamp", []float64{0, 0, 0, 100},
			Box{Min: 0, Q1: 0, Median: 0, Q3: 25, Max: 25, Outliers: []float64{100}, N: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewBox(tc.xs)
			approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
			if !approx(got.Min, tc.want.Min) || !approx(got.Q1, tc.want.Q1) ||
				!approx(got.Median, tc.want.Median) || !approx(got.Q3, tc.want.Q3) ||
				!approx(got.Max, tc.want.Max) || got.N != tc.want.N {
				t.Errorf("NewBox(%v) = %+v, want %+v", tc.xs, got, tc.want)
			}
			if len(got.Outliers) != len(tc.want.Outliers) {
				t.Errorf("NewBox(%v) outliers = %v, want %v", tc.xs, got.Outliers, tc.want.Outliers)
			}
		})
	}
}

func TestNewBoxAllOutliersFallback(t *testing.T) {
	// All-+Inf samples leave the whisker scan empty-handed (Inf < Inf never
	// holds, so Min stays the +Inf sentinel): the fallback resets the
	// whiskers to the data extremes and clears the outlier list rather than
	// reporting an empty box.
	xs := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	b := NewBox(xs)
	if !math.IsInf(b.Min, 1) || !math.IsInf(b.Max, 1) {
		t.Errorf("fallback whiskers = [%v, %v], want the +Inf data extremes", b.Min, b.Max)
	}
	if len(b.Outliers) != 0 {
		t.Errorf("fallback kept %d outliers, want none", len(b.Outliers))
	}
	if b.N != 3 {
		t.Errorf("N = %d, want 3", b.N)
	}
}

package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := Stdev(xs); s != 2 {
		t.Errorf("Stdev = %v, want 2", s)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || CoV(nil) != 0 {
		t.Error("empty-input moments should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("singleton variance should be 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestCoV(t *testing.T) {
	if c := CoV([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !close(c, 0.4, 1e-12) {
		t.Errorf("CoV = %v, want 0.4", c)
	}
	if CoV([]float64{-1, 1}) != 0 {
		t.Error("zero-mean CoV should be 0")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Correlation(xs, ys); !close(c, 1, 1e-12) {
		t.Errorf("perfect corr = %v", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(xs, neg); !close(c, -1, 1e-12) {
		t.Errorf("perfect anticorr = %v", c)
	}
	if Correlation(xs, []float64{3, 3, 3, 3, 3}) != 0 {
		t.Error("constant series corr should be 0")
	}
	if Correlation(xs, ys[:3]) != 0 {
		t.Error("length mismatch corr should be 0")
	}
}

func TestCorrelationIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	if c := Correlation(xs, ys); math.Abs(c) > 0.05 {
		t.Errorf("independent corr = %v, want ≈ 0", c)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !close(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if m := Median(xs); m != 3 {
		t.Errorf("Median = %v", m)
	}
}

func TestHist2D(t *testing.T) {
	h := NewHist2D(10, 10, 0, 1, 0, 1)
	for i := 0; i < 100; i++ {
		h.Add(0.05, 0.05) // all into bin (0,0)
	}
	h.Add(2, 2) // clipped into the top corner
	if h.Total() != 101 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Counts[0][0] != 100 {
		t.Errorf("bin(0,0) = %d", h.Counts[0][0])
	}
	if h.Counts[9][9] != 1 {
		t.Errorf("bin(9,9) = %d", h.Counts[9][9])
	}
	if h.MaxCount() != 100 {
		t.Errorf("MaxCount = %d", h.MaxCount())
	}
	out := h.Render()
	if len(out) == 0 {
		t.Error("Render should produce output")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		o.Add(xs[i])
	}
	if !close(o.Mean(), Mean(xs), 1e-9) {
		t.Errorf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !close(o.Variance(), Variance(xs), 1e-6) {
		t.Errorf("online var %v vs batch %v", o.Variance(), Variance(xs))
	}
	if !close(o.CoV(), CoV(xs), 1e-6) {
		t.Errorf("online cov %v vs batch %v", o.CoV(), CoV(xs))
	}
	if o.N() != 1000 {
		t.Errorf("N = %d", o.N())
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(raw, p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

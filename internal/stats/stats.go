// Package stats provides the small statistics toolkit used by the trace
// generator, the workload analysis of §2.2 and the evaluation metrics of
// §5: moments (batch or one-pass), correlation, percentiles and 2-D
// histograms.
package stats

import (
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stdev returns the population standard deviation of xs.
func Stdev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (stdev/mean), the dispersion
// measure the paper uses to characterize task demand diversity (§2.2.2).
// Returns 0 when the mean is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Stdev(xs) / m
}

// Correlation returns the Pearson correlation coefficient of the paired
// samples xs, ys (Table 2 of the paper). It returns 0 if either series is
// constant or the lengths differ.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
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

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Hist2D is a fixed-bin two-dimensional histogram used to render the
// Figure-2 style demand heatmaps.
type Hist2D struct {
	XBins, YBins int
	XMin, XMax   float64
	YMin, YMax   float64
	Counts       [][]int
	totalSamples int
}

// NewHist2D creates a histogram with the given bin grid over [xmin,xmax] ×
// [ymin,ymax].
func NewHist2D(xbins, ybins int, xmin, xmax, ymin, ymax float64) *Hist2D {
	h := &Hist2D{XBins: xbins, YBins: ybins, XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax}
	h.Counts = make([][]int, ybins)
	for i := range h.Counts {
		h.Counts[i] = make([]int, xbins)
	}
	return h
}

// Add records a sample; out-of-range samples are clipped into the border
// bins.
func (h *Hist2D) Add(x, y float64) {
	bin := func(v, lo, hi float64, n int) int {
		if hi <= lo {
			return 0
		}
		i := int((v - lo) / (hi - lo) * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	h.Counts[bin(y, h.YMin, h.YMax, h.YBins)][bin(x, h.XMin, h.XMax, h.XBins)]++
	h.totalSamples++
}

// Total returns the number of samples added.
func (h *Hist2D) Total() int { return h.totalSamples }

// MaxCount returns the largest bin count.
func (h *Hist2D) MaxCount() int {
	max := 0
	for _, row := range h.Counts {
		for _, c := range row {
			if c > max {
				max = c
			}
		}
	}
	return max
}

// Render draws the histogram as ASCII art with log-scale intensity
// characters, highest y first (mirroring the plot orientation of Fig. 2).
func (h *Hist2D) Render() string {
	const ramp = " .:-=+*#%@"
	maxLog := math.Log10(float64(h.MaxCount()) + 1)
	var b strings.Builder
	for yi := h.YBins - 1; yi >= 0; yi-- {
		for xi := 0; xi < h.XBins; xi++ {
			c := h.Counts[yi][xi]
			if maxLog == 0 || c == 0 {
				b.WriteByte(' ')
				continue
			}
			idx := int(math.Log10(float64(c)+1) / maxLog * float64(len(ramp)-1))
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Online accumulates mean and variance in one pass (Welford's
// algorithm); used by the estimator, where retaining raw samples would
// be wasteful.
type Online struct {
	n        int
	mean, m2 float64
}

// Add incorporates a sample.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of samples seen.
func (o *Online) N() int { return o.n }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// Stdev returns the running population standard deviation.
func (o *Online) Stdev() float64 { return math.Sqrt(o.Variance()) }

// CoV returns the running coefficient of variation (0 if mean is 0).
func (o *Online) CoV() float64 {
	if o.mean == 0 {
		return 0
	}
	return o.Stdev() / o.mean
}

// OnlineState is the serializable state of an Online accumulator, used
// when checkpointing estimator statistics into the RM journal.
type OnlineState struct {
	N        int
	Mean, M2 float64
}

// State exports the accumulator.
func (o *Online) State() OnlineState {
	return OnlineState{N: o.n, Mean: o.mean, M2: o.m2}
}

// SetState restores the accumulator to a previously exported state.
func (o *Online) SetState(st OnlineState) {
	o.n, o.mean, o.m2 = st.N, st.Mean, st.M2
}

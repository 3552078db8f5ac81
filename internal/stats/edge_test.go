package stats

import (
	"strings"
	"testing"
)

// Edge cases for the summary primitives: empty and single-sample inputs
// must return well-defined values, never panic or NaN.

func TestPercentileEmpty(t *testing.T) {
	for _, p := range []float64{-10, 0, 50, 100, 200} {
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("Percentile(nil, %v) = %v, want 0", p, got)
		}
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	xs := []float64{7.5}
	for _, p := range []float64{-10, 0, 25, 50, 100, 200} {
		if got := Percentile(xs, p); got != 7.5 {
			t.Errorf("Percentile([7.5], %v) = %v, want 7.5", p, got)
		}
	}
}

func TestHist2DEmpty(t *testing.T) {
	h := NewHist2D(4, 4, 0, 1, 0, 1)
	if h.Total() != 0 || h.MaxCount() != 0 {
		t.Errorf("empty hist: total=%d max=%d", h.Total(), h.MaxCount())
	}
	// Render of an all-zero grid is blank rows, no division blow-up.
	out := h.Render()
	if strings.TrimRight(strings.ReplaceAll(out, "\n", ""), " ") != "" {
		t.Errorf("empty render not blank: %q", out)
	}
}

func TestHist2DSingleSample(t *testing.T) {
	h := NewHist2D(4, 4, 0, 1, 0, 1)
	h.Add(0.5, 0.5)
	if h.Total() != 1 || h.MaxCount() != 1 {
		t.Errorf("total=%d max=%d, want 1/1", h.Total(), h.MaxCount())
	}
	if !strings.ContainsAny(h.Render(), "@") {
		t.Error("single sample not rendered at full intensity")
	}
}

func TestHist2DDegenerateRange(t *testing.T) {
	// A zero-area axis clips everything into bin 0 instead of dividing
	// by zero.
	h := NewHist2D(4, 4, 0, 0, 0, 1)
	h.Add(5, 0.5)
	if h.Total() != 1 {
		t.Errorf("total=%d, want 1", h.Total())
	}
	if h.Counts[2][0] != 1 {
		t.Errorf("sample not clipped into x-bin 0: %v", h.Counts)
	}
}

package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if r.Counter("x_total", "help") != c {
		t.Fatal("second lookup did not return the same counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("x", "")
	if g.Value() != 0 {
		t.Fatalf("zero value = %v, want 0", g.Value())
	}
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Value = %v, want 1.5", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Fatalf("Value = %v, want 8000 (lost updates)", got)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{1e-9, 0},
		{1e-6, 0},          // exactly the first bound
		{1.5e-6, 1},        // (1e-6, 2e-6]
		{2e-6, 1},          // exactly the second bound
		{2.1e-6, 2},        // just past it
		{1, 20},            // 1e-6·2^20 ≈ 1.05 ≥ 1
		{1e9, histBuckets}, // beyond the grid → +Inf
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's upper bound must index to itself (inclusive le).
	for i := 0; i < histBuckets; i++ {
		bound := histMin * math.Pow(2, float64(i))
		if got := bucketIndex(bound); got != i {
			t.Errorf("bucketIndex(bound %d = %v) = %d", i, bound, got)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should read 0")
	}
	for _, v := range []float64{0.001, 0.002, 0.004, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 100.007; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	// Median upper bound must cover 0.002 but stay well under 100.
	if q := h.Quantile(0.5); q < 0.002 || q > 1 {
		t.Fatalf("Quantile(0.5) = %v, want in [0.002, 1]", q)
	}
	if q := h.Quantile(1); q < 100 {
		t.Fatalf("Quantile(1) = %v, want >= 100", q)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m", "k", "v"); got != `m{k="v"}` {
		t.Fatalf("Label = %q", got)
	}
	if got := Label(Label("m", "a", "1"), "b", "2"); got != `m{a="1",b="2"}` {
		t.Fatalf("nested Label = %q", got)
	}
	if got := baseName(`m{a="1"}`); got != "m" {
		t.Fatalf("baseName = %q", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("tetris_rm_placements_total", "Tasks placed.").Add(7)
	r.Gauge("tetris_rm_nodes_live", "Live nodes.").Set(3)
	r.GaugeFunc("tetris_rm_uptime_seconds", "", func() float64 { return 1.5 })
	r.Counter(Label("tetris_sim_util", "resource", "cpu"), "Utilization.").Add(1)
	r.Counter(Label("tetris_sim_util", "resource", "mem"), "").Add(2)
	h := r.Histogram("tetris_rm_fsync_seconds", "Fsync latency.")
	h.Observe(0.01)
	h.Observe(0.02)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP tetris_rm_placements_total Tasks placed.",
		"# TYPE tetris_rm_placements_total counter",
		"tetris_rm_placements_total 7",
		"tetris_rm_nodes_live 3",
		"tetris_rm_uptime_seconds 1.5",
		`tetris_sim_util{resource="cpu"} 1`,
		`tetris_sim_util{resource="mem"} 2`,
		"# TYPE tetris_rm_fsync_seconds histogram",
		`tetris_rm_fsync_seconds_bucket{le="+Inf"} 2`,
		"tetris_rm_fsync_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// One TYPE header per base name, even with two labeled series.
	if got := strings.Count(out, "# TYPE tetris_sim_util counter"); got != 1 {
		t.Errorf("TYPE header for labeled family appeared %d times, want 1", got)
	}
	// Histogram cumulative counts: the +Inf bucket equals _count, and the
	// bucket holding 0.01 must already include it.
	if !strings.Contains(out, `tetris_rm_fsync_seconds_bucket{le="0.016384"} 1`) {
		t.Errorf("expected cumulative bucket at 0.016384 to hold 1 sample\n%s", out)
	}
}

// TestLabeledHistogram covers per-shard histogram series: a labeled
// histogram name renders _bucket/_sum/_count suffixed before the label
// block, with `le` merged into the existing labels, and the two shards
// share one HELP/TYPE header.
func TestLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h0 := r.Histogram(Label("tetris_rm_round_seconds", "shard", "0"), "Round time.")
	h1 := r.Histogram(Label("tetris_rm_round_seconds", "shard", "1"), "")
	h0.Observe(0.01)
	h0.Observe(0.02)
	h1.Observe(0.04)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE tetris_rm_round_seconds histogram",
		`tetris_rm_round_seconds_bucket{shard="0",le="0.016384"} 1`,
		`tetris_rm_round_seconds_bucket{shard="0",le="+Inf"} 2`,
		`tetris_rm_round_seconds_count{shard="0"} 2`,
		`tetris_rm_round_seconds_sum{shard="0"} 0.03`,
		`tetris_rm_round_seconds_bucket{shard="1",le="+Inf"} 1`,
		`tetris_rm_round_seconds_count{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE tetris_rm_round_seconds histogram"); got != 1 {
		t.Errorf("TYPE header appeared %d times, want 1", got)
	}
	// Malformed renderings that would make Prometheus reject the scrape.
	for _, bad := range []string{`seconds{shard="0"}_sum`, `seconds{shard="0"}_bucket`} {
		if strings.Contains(out, bad) {
			t.Errorf("exposition contains malformed series %q\n%s", bad, out)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

// TestRecordAllocs pins the zero-alloc contract for hot-path recording;
// the scheduler benchgate depends on it.
func TestRecordAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.25)
		g.Add(0.5)
		h.Observe(0.004)
	}); n != 0 {
		t.Fatalf("recording allocates %v allocs/op, want 0", n)
	}
}

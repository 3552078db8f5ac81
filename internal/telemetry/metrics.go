// Package telemetry is the observability layer of the reproduction: a
// zero-dependency metrics registry (counters, gauges, histograms with
// fixed log-scale buckets), a bounded structured event ring, and HTTP
// exposition in Prometheus text format plus JSON debug endpoints.
//
// The paper's evaluation (§5) is entirely metric-driven — makespan, job
// completion times, utilization over time, fairness deviation — and the
// distributed prototype needs the same continuous measurement a
// production scheduler would. Recording is designed for the scheduling
// hot path: Counter, Gauge and Histogram updates are single atomic
// operations with zero heap allocations (asserted by TestRecordAllocs),
// so instrumentation never shows up in the benchmark gate. Exposition
// (scraping) is the slow path and may allocate freely.
//
// Metric naming follows the Prometheus convention
// tetris_<component>_<what>_<unit>: counters end in _total, histograms
// and gauges carry their unit (seconds, fraction). A name may embed
// constant labels literally — Label("tetris_sim_utilization",
// "resource", "cpu") yields `tetris_sim_utilization{resource="cpu"}` —
// and the exposition groups such series under one HELP/TYPE header.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use and never
// allocate.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value. The zero value reads 0; all
// methods are safe for concurrent use and never allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Add adjusts the value by delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: every histogram shares one fixed log-scale
// grid so recording needs no per-instance configuration and comparisons
// across metrics line up. Upper bounds are histMin·2^i — 1 µs up to
// ~9.5 hours for latencies in seconds, with a +Inf catch-all — which
// also covers simulated-time durations of thousands of seconds.
const (
	histMin     = 1e-6
	histBuckets = 45 // histMin·2^44 ≈ 1.76e7; +Inf bucket follows
)

// histBounds holds the pre-rendered `le` label values for exposition.
var histBounds = func() [histBuckets + 1]string {
	var out [histBuckets + 1]string
	for i := 0; i < histBuckets; i++ {
		out[i] = strconv.FormatFloat(histMin*math.Pow(2, float64(i)), 'g', -1, 64)
	}
	out[histBuckets] = "+Inf"
	return out
}()

// Histogram is a fixed log-scale-bucket distribution. The zero value is
// ready to use; Observe is a handful of atomic operations and never
// allocates.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64 // non-cumulative; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// bucketIndex returns the bucket whose inclusive upper bound first
// covers v.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	i := int(math.Ceil(math.Log2(v / histMin)))
	if i < 0 {
		return 0
	}
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v in one update: the buckets and
// count of n Observe(v) calls, and their sum up to rounding (v·n).
func (h *Histogram) ObserveN(v float64, n uint64) {
	h.buckets[bucketIndex(v)].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns an upper-bound estimate of the q-th quantile
// (q in [0,1]): the upper bound of the bucket where the quantile falls.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			if i == histBuckets {
				return math.Inf(1)
			}
			return histMin * math.Pow(2, float64(i))
		}
	}
	return math.Inf(1)
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

type metric struct {
	name string // full series name, possibly with {labels}
	base string // name stripped of labels — the HELP/TYPE subject
	help string
	kind metricKind

	c  *Counter
	g  *Gauge
	fn func() float64
	h  *Histogram
}

// Registry is a set of named metrics. Get-or-create accessors are safe
// for concurrent use and idempotent: asking twice for the same name
// returns the same metric, so independent components (e.g. several node
// managers in one process) naturally aggregate into shared series.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Label appends a constant label to a metric name:
// Label("m", "k", "v") → `m{k="v"}`. Composes: labeling an already
// labeled name extends its label set.
func Label(name, key, value string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}

// baseName strips the label block from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	m, ok := r.byName[name]
	if ok {
		if m.kind.String() != kind.String() {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m = &metric{name: name, base: baseName(name), help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter returns the counter registered under name, creating it with
// the given help text on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindGauge).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. fn must be safe to call from the scrape goroutine. Re-registering
// the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindGaugeFunc).fn = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use. The name may embed constant labels (Label): the exposition
// merges them with each bucket's `le` label and suffixes _bucket/_sum/
// _count before the label block, so per-shard series like
// `tetris_rm_schedule_round_seconds{shard="0"}` render as valid
// Prometheus histograms.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name, help, kindHistogram).h
}

// suffixSeries appends suffix to a series name before any label block:
// suffixSeries("m", "_sum") → "m_sum"; suffixSeries(`m{a="b"}`, "_sum")
// → `m_sum{a="b"}`.
func suffixSeries(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// bucketSeries builds a histogram bucket line's series name, merging the
// `le` bound into an existing label block when the name carries one.
func bucketSeries(name, le string) string {
	return Label(suffixSeries(name, "_bucket"), "le", le)
}

// snapshotMetrics returns the metric list ordered by (base, name) so
// series sharing a base name sit under one header. The slice is fresh;
// the *metric values are shared (their reads are atomic).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	out := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].name < out[j].name
	})
	return out
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastBase := ""
	for _, m := range r.snapshotMetrics() {
		if m.base != lastBase {
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.base, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.base, m.kind)
			lastBase = m.base
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.g.Value()))
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.fn()))
		case kindHistogram:
			var cum uint64
			for i := 0; i <= histBuckets; i++ {
				cum += m.h.buckets[i].Load()
				// Skip interior zero-count buckets to keep scrapes small;
				// cumulative counts stay correct because cum carries over.
				if m.h.buckets[i].Load() == 0 && i != histBuckets {
					continue
				}
				fmt.Fprintf(&b, "%s %d\n", bucketSeries(m.name, histBounds[i]), cum)
			}
			fmt.Fprintf(&b, "%s %s\n", suffixSeries(m.name, "_sum"), formatFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s %d\n", suffixSeries(m.name, "_count"), m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

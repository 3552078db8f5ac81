package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// episodeOf runs one untraced episode of a workload at tiny sizes.
func episodeOf(t *testing.T, name string, seed int64) *episode {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	ep, err := w.run(&runCtx{seed: seed, sz: tinySizes, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if ep.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", name, seed, ep.failed, ep.attempted, ep.errs)
	}
	return ep
}

// The single-threaded workloads are functions of the seed: equal seeds
// give equal counts and the same (job → finish time) digest, another
// seed another digest.
func TestSameSeedSameDigest(t *testing.T) {
	for _, name := range []string{"sim-fb", "rm-backlog"} {
		a, b, c := episodeOf(t, name, 1), episodeOf(t, name, 1), episodeOf(t, name, 2)
		if a.digest == "" || a.digest != b.digest || a.tasks != b.tasks || a.beats != b.beats {
			t.Errorf("%s: two runs of seed 1 differ: %s/%d tasks/%d beats vs %s/%d/%d",
				name, a.digest, a.tasks, a.beats, b.digest, b.tasks, b.beats)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", name, a.digest)
		}
		if a.tasks != c.tasks {
			t.Errorf("%s: the amount of work depends on the seed: %d vs %d tasks", name, a.tasks, c.tasks)
		}
	}
}

func TestPercentile(t *testing.T) {
	if v, used := percentile(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("empty: got %v at %v", v, used)
	}
	if v, _ := percentile([]float64{7}, 0.99); v != 7 {
		t.Errorf("one sample: got %v", v)
	}
	// 100 samples 1..100: ten lie beyond p90, so p99 falls back to p90.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := percentile(xs, 0.99); v != 90 || used != 0.9 {
		t.Errorf("p99 of 100 samples: got %v at %v, want 90 at 0.9", v, used)
	}
	if v, used := percentile(xs, 0.5); v != 50 || used != 0.5 {
		t.Errorf("median of 100 samples: got %v at %v", v, used)
	}
	// 2000 samples support p99 (20 beyond it).
	xs = make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := percentile(xs, 0.99); v != 1980 || used != 0.99 {
		t.Errorf("p99 of 2000 samples: got %v at %v", v, used)
	}
	// Too few samples for any tail: never below the median.
	if v, used := percentile([]float64{1, 2, 3, 4, 5}, 0.99); v != 3 || used != 0.5 {
		t.Errorf("p99 of 5 samples: got %v at %v, want the median", v, used)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, [3]float64{2, 4, 6}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A span's self time excludes the union of its children, which may
// overlap (shards scheduling concurrently under one batch call).
func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},
		{Name: "child", Start: 90, End: 120, Parent: 0}, // clipped to the parent
	}, timedTo: 4}
	tot := tr.totals(0, 4)
	if got := tot["parent"].selfNs; got != 100-50-10 {
		t.Errorf("parent self = %d, want 40", got)
	}
	if got := tr.rootNs(); got != 100 {
		t.Errorf("root time = %d, want 100", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tasks_per_s", Better: "higher", Bound: 0.10}
	mv := func(vs ...float64) *metricValues {
		q := quartiles(vs)
		return &metricValues{Values: vs, Q1: q[0], Median: q[1], Q3: q[2]}
	}
	steady := mv(1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		d    metricDef
		a, b *metricValues
		want string
	}{
		{lower, steady, mv(1.05), "ok"},
		{lower, steady, mv(1.2), "regressed"},
		{lower, steady, mv(0.5), "ok"},
		{higher, steady, mv(0.8), "regressed"},
		{higher, steady, mv(1.3), "ok"},
		{lower, mv(1.0, 1.4, 0.7, 1.1), mv(1.3), "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: A %v, B %v: got %s, want %s", c.d.Name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the program must declare the same workloads and
// metrics, every declared metric must be emitted and nothing else.
func TestBenchmarkJSONMatchesWhatIsEmitted(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	sameDefs := func(kind string, declared, implemented []metricDef) {
		if len(declared) != len(implemented) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(implemented))
		}
		for i, d := range declared {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s %q: unit %q", kind, d.Name, d.Unit)
			}
			if d != implemented[i] {
				t.Errorf("%s metric %d: declared %+v, implemented %+v", kind, i, d, implemented[i])
			}
		}
	}
	sameDefs("end_to_end", decl.EndToEnd, endToEnd)
	sameDefs("per_layer", decl.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; it is %+v", d)
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 0.01, traced, tinySizes, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s is declared but not emitted", w.name, traced, d.Name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, v)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared: %v", w.name, traced, len(res.Metrics), len(defs), res.Metrics)
			}
		}
	}
}

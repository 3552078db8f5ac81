package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseBench reads a `go test -bench -count 3` fixture: the -N
// GOMAXPROCS suffix is stripped (a non-numeric suffix is part of the
// name), every run is kept in file order, B/op and allocs/op are carried
// only where a line reports them, and non-benchmark lines are skipped.
func TestParseBench(t *testing.T) {
	got, order, err := parseBench("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{
		"BenchmarkTetrisSchedule/machines=100",
		"BenchmarkSimRun/facebook",
		"BenchmarkJournalEncode/launch-v2",
	}
	if !slices.Equal(order, wantOrder) {
		t.Fatalf("order = %q, want %q", order, wantOrder)
	}
	want := map[string]runs{
		"BenchmarkTetrisSchedule/machines=100": {ns: []float64{60000, 62000, 64000}, bytes: []float64{100, 200, 300}, allocs: []float64{0, 2, 4}},
		"BenchmarkSimRun/facebook":             {ns: []float64{500000000, 700000000}},
		"BenchmarkJournalEncode/launch-v2":     {ns: []float64{100}, bytes: []float64{24}, allocs: []float64{1}},
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		g := got[name]
		if g == nil || !slices.Equal(g.ns, w.ns) || !slices.Equal(g.bytes, w.bytes) || !slices.Equal(g.allocs, w.allocs) {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
	if _, _, err := parseBench("testdata/absent.txt"); err == nil {
		t.Error("parseBench on a missing file: want an error")
	}
}

// TestReport: every row that carries B/op in both files prints base and
// head median B/op, whichever way it moved; allocs/op prints only where
// head's median allocates more; ns/op and B/op can fail the gate.
func TestReport(t *testing.T) {
	base := map[string]*runs{
		"BenchmarkA": {ns: []float64{100, 100, 100}, bytes: []float64{5000}, allocs: []float64{3}},
		"BenchmarkB": {ns: []float64{100}, bytes: []float64{10}, allocs: []float64{1}},
		"BenchmarkC": {ns: []float64{100}},
	}
	head := map[string]*runs{
		"BenchmarkA": {ns: []float64{110, 110, 110}, bytes: []float64{3000}, allocs: []float64{2}},
		"BenchmarkB": {ns: []float64{90}, bytes: []float64{20}, allocs: []float64{2}},
		"BenchmarkC": {ns: []float64{100}},
		"BenchmarkD": {ns: []float64{7}, bytes: []float64{64}},
	}
	order := []string{"BenchmarkA", "BenchmarkB", "BenchmarkC", "BenchmarkD"}
	var out strings.Builder
	if !report(&out, base, head, order, 0.15) {
		t.Errorf("a 10%% slowdown failed a 15%% gate:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var bytes, allocs []string
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case strings.HasSuffix(l, "B/op"):
			bytes = append(bytes, f[1]+" "+f[2])
		case strings.HasSuffix(l, "allocs/op (informational)"):
			allocs = append(allocs, f[1]+" "+f[2])
		}
	}
	if want := []string{"5000 3000", "10 20", "- 64"}; !slices.Equal(bytes, want) {
		t.Errorf("B/op lines give %q, want %q:\n%s", bytes, want, out.String())
	}
	if want := []string{"1 2"}; !slices.Equal(allocs, want) {
		t.Errorf("allocs/op lines give %q, want %q:\n%s", allocs, want, out.String())
	}
	head["BenchmarkB"] = &runs{ns: []float64{90}, bytes: []float64{200}}
	out.Reset()
	if report(&out, base, head, order, 0.15) || !strings.Contains(out.String(), "B/op  << B/op REGRESSION") {
		t.Errorf("10 → 200 B/op passed the gate:\n%s", out.String())
	}
	head["BenchmarkB"] = &runs{ns: []float64{90}}
	head["BenchmarkA"] = &runs{ns: []float64{116, 116, 116}}
	if report(&strings.Builder{}, base, head, order, 0.15) {
		t.Error("a 16% slowdown of every run passed a 15% gate")
	}
}

// TestBytesRegressed pins the B/op rule: head's smallest run must lie
// above base's largest by more than the threshold and by more than
// minBytesDelta.
func TestBytesRegressed(t *testing.T) {
	for _, c := range []struct {
		name       string
		base, head []float64
		want       bool
	}{
		{"0 B/op gains 8", []float64{0, 0, 0, 0, 0}, []float64{8, 8, 8, 8, 8}, false},
		{"doubled", []float64{7000, 7010, 6990, 7005, 7000}, []float64{14000, 14020, 13990, 14010, 14000}, true},
		{"overlapping runs", []float64{7000, 7400, 6990, 9000, 7000}, []float64{8900, 9100, 9200, 9300, 9400}, false},
		{"shrank", []float64{7000, 7010, 6990}, []float64{3000, 3010, 2990}, false},
		{"past the threshold by less than 64 B", []float64{100, 100, 100}, []float64{160, 160, 160}, false},
		{"past 64 B, within the threshold", []float64{10000, 10000}, []float64{11000, 11000}, false},
		{"0 B/op gains 100", []float64{0, 0, 0}, []float64{100, 100, 100}, true},
	} {
		if got := bytesRegressed(c.base, c.head, 0.15); got != c.want {
			t.Errorf("%s: bytesRegressed = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRegressed pins the gate's rule: head's median must lie above
// base's third quartile, and head's median, head's first quartile and
// the median run-by-run ratio each past the threshold over base's.
func TestRegressed(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102} // median 100, quartiles 100 and 101
	noisy := []float64{100, 80, 125, 95, 130}   // median 100, quartiles 95 and 125
	for _, c := range []struct {
		name       string
		base, head []float64
		want       bool
	}{
		{"slower beyond the spread and the threshold", steady, []float64{120, 118, 121, 119, 125}, true},
		{"past the threshold, within base's spread", noisy, []float64{122, 110, 124, 118, 135}, false},
		{"beyond the spread, within the threshold", steady, []float64{110, 112, 108, 111, 109}, false},
		{"one slow head run, median unchanged", steady, []float64{100, 160, 99, 101, 100}, false},
		{"two slow head runs move the median, not the first quartile", steady, []float64{100, 100, 120, 121, 125}, false},
		{"median past the threshold, first quartile within it", steady, []float64{116, 116, 114, 114, 117}, false},
		// One row of identical code, both sides built from one tree and
		// alternated on a busy 2-core machine: head's median reads +18.5 %.
		{"identical code, median above base's spread", []float64{22703, 24124, 24428, 27504, 29453}, []float64{21433, 27286, 28956, 31425, 31579}, false},
		// Another, in µs: head read slower beside base in every run, by
		// 4–55 %, and its median and first quartile read +23 % and +25 %.
		{"identical code, pairs within the threshold", []float64{1907, 2373, 2017, 1800, 2524}, []float64{2376, 2481, 2152, 2784, 2623}, false},
		{"one slow base run does not hide a slowdown", []float64{100, 101, 99, 100, 250}, []float64{120, 118, 121, 119, 125}, true},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, false},
		{"one run a side: the threshold alone", []float64{100}, []float64{116}, true},
		{"one run a side, within the threshold", []float64{100}, []float64{114}, false},
	} {
		if got := regressed(c.base, c.head, 0.15); got != c.want {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.want)
		}
	}
}

package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseBench reads a `go test -bench -count 3` fixture: the -N
// GOMAXPROCS suffix is stripped (a non-numeric suffix is part of the
// name), -count repeats are averaged, B/op and allocs/op are carried only
// where a line reports them, and non-benchmark lines are skipped.
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
	want := map[string]result{
		"BenchmarkTetrisSchedule/machines=100": {nsPerOp: 62000, bytesPerOp: 200, hasBytes: true, allocsPerOp: 2, hasAllocs: true},
		"BenchmarkSimRun/facebook":             {nsPerOp: 600000000},
		"BenchmarkJournalEncode/launch-v2":     {nsPerOp: 100, bytesPerOp: 24, hasBytes: true, allocsPerOp: 1, hasAllocs: true},
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	if _, _, err := parseBench("testdata/absent.txt"); err == nil {
		t.Error("parseBench on a missing file: want an error")
	}
}

// TestReport: every row that carries B/op in both files prints base and
// head B/op, whichever way it moved; allocs/op prints only where head
// allocates more; only ns/op beyond the threshold fails the gate.
func TestReport(t *testing.T) {
	base := map[string]result{
		"BenchmarkA": {nsPerOp: 100, bytesPerOp: 5000, hasBytes: true, allocsPerOp: 3, hasAllocs: true},
		"BenchmarkB": {nsPerOp: 100, bytesPerOp: 10, hasBytes: true, allocsPerOp: 1, hasAllocs: true},
		"BenchmarkC": {nsPerOp: 100},
	}
	head := map[string]result{
		"BenchmarkA": {nsPerOp: 110, bytesPerOp: 3000, hasBytes: true, allocsPerOp: 2, hasAllocs: true},
		"BenchmarkB": {nsPerOp: 90, bytesPerOp: 20, hasBytes: true, allocsPerOp: 2, hasAllocs: true},
		"BenchmarkC": {nsPerOp: 100},
		"BenchmarkD": {nsPerOp: 7, bytesPerOp: 64, hasBytes: true},
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
		case strings.HasSuffix(l, "B/op (informational)"):
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
	head["BenchmarkA"] = result{nsPerOp: 116}
	if report(&strings.Builder{}, base, head, order, 0.15) {
		t.Error("a 16% slowdown passed a 15% gate")
	}
}

package main

import (
	"slices"
	"testing"
)

// TestParseBench reads a `go test -bench -count 3` fixture: the -N
// GOMAXPROCS suffix is stripped (a non-numeric suffix is part of the
// name), -count repeats are averaged, allocs/op is carried only where a
// line reports it, and non-benchmark lines are skipped.
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
		"BenchmarkTetrisSchedule/machines=100": {nsPerOp: 62000, allocsPerOp: 2, hasAllocs: true},
		"BenchmarkSimRun/facebook":             {nsPerOp: 600000000},
		"BenchmarkJournalEncode/launch-v2":     {nsPerOp: 100, allocsPerOp: 1, hasAllocs: true},
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

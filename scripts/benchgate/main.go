// Command benchgate compares two `go test -bench` outputs (benchstat
// style) and fails when any benchmark slowed down beyond a threshold.
// CI runs the scheduler micro-benchmarks and the whole-run simulator
// benchmark on the base and head commits and gates merges on:
//
//	benchgate -base base.txt -head head.txt -threshold 0.15
//
// Benchmarks present in only one file are reported but not gated (new
// or removed benchmarks are not regressions). Allocation counts are
// shown for context; only ns/op is gated, since allocs/op is separately
// pinned by TestScheduleAllocs.
//
// A standalone mode ties benchgate into the BENCH_*.json trajectory
// (internal/bench schema):
//
//	benchgate -check BENCH_scale_smoke.json -require rounds_per_sec,heartbeat_p99_seconds
//
// validates an existing snapshot — schema version, and that every
// -require metric is present and nonzero — and prints it. CI uses it
// to fail the scale-smoke job when the harness silently measured
// nothing. -max metric=bound (repeatable) additionally upper-bounds a
// metric in -check mode — zero passes, since a bound gates tail
// latency, not liveness:
//
//	benchgate -check BENCH_scale_overload.json \
//	    -require storm_admitted_total,storm_rejected_total \
//	    -max submit_p99_seconds=0.5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/tetris-sched/tetris/internal/bench"
)

type result struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// maxList collects repeated -max flags, each of the form
// "metric=bound": in -check mode the metric must be present, finite,
// and no greater than the bound. Unlike -require, zero is acceptable —
// an upper bound gates tail latencies, not liveness.
type maxList []struct {
	key   string
	bound float64
}

func (m *maxList) String() string {
	var parts []string
	for _, e := range *m {
		parts = append(parts, fmt.Sprintf("%s=%g", e.key, e.bound))
	}
	return strings.Join(parts, ",")
}

func (m *maxList) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want metric=bound, got %q", s)
	}
	bound, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("bound in %q: %v", s, err)
	}
	*m = append(*m, struct {
		key   string
		bound float64
	}{k, bound})
	return nil
}

// parseBench reads `go test -bench` output: lines of the form
//
//	BenchmarkName/sub-8   1234   56789 ns/op   100 B/op   5 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so runs from machines
// with different core counts still match. Repeated lines (from -count)
// are averaged.
func parseBench(path string) (map[string]result, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sums := map[string]result{}
	counts := map[string]int{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r result
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
				ok = true
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		if !ok {
			continue
		}
		if _, seen := sums[name]; !seen {
			order = append(order, name)
		}
		prev := sums[name]
		prev.nsPerOp += r.nsPerOp
		prev.allocsPerOp += r.allocsPerOp
		prev.hasAllocs = prev.hasAllocs || r.hasAllocs
		sums[name] = prev
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	for name, n := range counts {
		r := sums[name]
		r.nsPerOp /= float64(n)
		r.allocsPerOp /= float64(n)
		sums[name] = r
	}
	return sums, order, nil
}

// metricVerdict renders a required metric's value for gate output and
// reports whether it passes (present, nonzero, finite).
func metricVerdict(s *bench.Snapshot, key string) (got string, ok bool) {
	v, present := s.Metrics[key]
	switch {
	case !present:
		return "missing", false
	case v != v:
		return "NaN", false
	case v == 0:
		return "0", false
	case v > 1e300 || v < -1e300:
		return fmt.Sprintf("%g (non-finite)", v), false
	default:
		return fmt.Sprintf("%g", v), true
	}
}

// runCheck implements -check: load a BENCH_*.json snapshot, demand the
// required metrics, and print one verdict line per requirement so a CI
// failure names exactly which metric broke the gate and what value it
// had. The returned error summarizes the failures (nil = gate passed).
func runCheck(path, require string, maxes maxList, w io.Writer) error {
	var required []string
	for _, k := range strings.Split(require, ",") {
		if k = strings.TrimSpace(k); k != "" {
			required = append(required, k)
		}
	}
	s, err := bench.ReadFile(path)
	if err != nil {
		return err
	}
	failed := 0
	for _, k := range required {
		got, ok := metricVerdict(s, k)
		if ok {
			fmt.Fprintf(w, "  %-40s %s\n", k, got)
			continue
		}
		failed++
		fmt.Fprintf(w, "  %-40s FAIL — got %s, required nonzero finite\n", k, got)
	}
	for _, e := range maxes {
		v, present := s.Metrics[e.key]
		switch {
		case !present:
			failed++
			fmt.Fprintf(w, "  %-40s FAIL — missing, bound <= %g\n", e.key, e.bound)
		case v != v || v > 1e300 || v < -1e300:
			failed++
			fmt.Fprintf(w, "  %-40s FAIL — got %g, not finite\n", e.key, v)
		case v > e.bound:
			failed++
			fmt.Fprintf(w, "  %-40s FAIL — got %g, bound <= %g\n", e.key, v, e.bound)
		default:
			fmt.Fprintf(w, "  %-40s %g (<= %g)\n", e.key, v, e.bound)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d required metrics failed", path, failed, len(required)+len(maxes))
	}
	fmt.Fprintf(w, "benchgate: %s OK — kind=%s scenario=%s, %d metrics\n", path, s.Kind, s.Scenario, len(s.Metrics))
	return nil
}

func main() {
	basePath := flag.String("base", "", "bench output of the base commit")
	headPath := flag.String("head", "", "bench output of the head commit")
	threshold := flag.Float64("threshold", 0.15, "max allowed ns/op slowdown (0.15 = +15%)")
	checkPath := flag.String("check", "", "standalone: validate an existing BENCH_*.json snapshot and exit")
	require := flag.String("require", "", "comma-separated metrics that must be present and nonzero in -check")
	var maxes maxList
	flag.Var(&maxes, "max", "upper-bound a -check metric (metric=bound, repeatable); the metric must be present, finite, and <= bound")
	flag.Parse()
	if *checkPath != "" {
		if err := runCheck(*checkPath, *require, maxes, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		return
	}
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -base base.txt -head head.txt [-threshold 0.15]")
		fmt.Fprintln(os.Stderr, "       benchgate -check BENCH_x.json [-require m1,m2]")
		os.Exit(2)
	}
	base, _, err := parseBench(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	head, order, err := parseBench(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(head) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmarks in", *headPath)
		os.Exit(2)
	}
	failed := false
	fmt.Printf("%-60s %14s %14s %8s\n", "benchmark", "base ns/op", "head ns/op", "delta")
	for _, name := range order {
		h := head[name]
		b, inBase := base[name]
		if !inBase {
			fmt.Printf("%-60s %14s %14.0f %8s\n", name, "-", h.nsPerOp, "new")
			continue
		}
		delta := 0.0
		if b.nsPerOp > 0 {
			delta = h.nsPerOp/b.nsPerOp - 1
		}
		mark := ""
		if delta > *threshold {
			mark = "  << REGRESSION"
			failed = true
		}
		fmt.Printf("%-60s %14.0f %14.0f %+7.1f%%%s\n", name, b.nsPerOp, h.nsPerOp, delta*100, mark)
		if b.hasAllocs && h.hasAllocs && h.allocsPerOp > b.allocsPerOp {
			fmt.Printf("%-60s %14.0f %14.0f allocs/op (informational)\n", "  allocs:", b.allocsPerOp, h.allocsPerOp)
		}
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			fmt.Printf("%-60s %14s %14s %8s\n", name, "-", "-", "removed")
		}
	}
	if failed {
		fmt.Printf("\nbenchgate: FAIL — ns/op regression beyond +%.0f%%\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: OK")
}

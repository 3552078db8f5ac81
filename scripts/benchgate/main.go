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
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
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

func main() {
	basePath := flag.String("base", "", "bench output of the base commit")
	headPath := flag.String("head", "", "bench output of the head commit")
	threshold := flag.Float64("threshold", 0.15, "max allowed ns/op slowdown (0.15 = +15%)")
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -base base.txt -head head.txt [-threshold 0.15]")
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

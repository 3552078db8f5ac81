// Command benchgate compares two `go test -bench` outputs (benchstat
// style) and fails when any benchmark slowed down beyond a threshold.
// CI runs the scheduler micro-benchmarks and the whole-run simulator
// benchmark on the base and head commits and gates merges on:
//
//	benchgate -base base.txt -head head.txt -threshold 0.15
//
// Benchmarks present in only one file are reported but not gated (new
// or removed benchmarks are not regressions). Bytes per op are shown for
// every row that reports them, and allocation counts where head allocates
// more, for context; only ns/op is gated, since allocs/op is separately
// pinned by TestScheduleAllocs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type result struct {
	nsPerOp     float64
	bytesPerOp  float64
	hasBytes    bool
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
			case "B/op":
				r.bytesPerOp = v
				r.hasBytes = true
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
		prev.bytesPerOp += r.bytesPerOp
		prev.hasBytes = prev.hasBytes || r.hasBytes
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
		r.bytesPerOp /= float64(n)
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
	if !report(os.Stdout, base, head, order, *threshold) {
		fmt.Printf("\nbenchgate: FAIL — ns/op regression beyond +%.0f%%\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: OK")
}

// report writes the comparison table, head's rows in order, and returns
// false when some row's ns/op slowed down by more than threshold.
func report(w io.Writer, base, head map[string]result, order []string, threshold float64) bool {
	ok := true
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "base ns/op", "head ns/op", "delta")
	for _, name := range order {
		h := head[name]
		b, inBase := base[name]
		if !inBase {
			fmt.Fprintf(w, "%-60s %14s %14.0f %8s\n", name, "-", h.nsPerOp, "new")
			if h.hasBytes {
				fmt.Fprintf(w, "%-60s %14s %14.0f B/op (informational)\n", "  bytes:", "-", h.bytesPerOp)
			}
			continue
		}
		delta := 0.0
		if b.nsPerOp > 0 {
			delta = h.nsPerOp/b.nsPerOp - 1
		}
		mark := ""
		if delta > threshold {
			mark = "  << REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%%%s\n", name, b.nsPerOp, h.nsPerOp, delta*100, mark)
		if b.hasBytes && h.hasBytes {
			fmt.Fprintf(w, "%-60s %14.0f %14.0f B/op (informational)\n", "  bytes:", b.bytesPerOp, h.bytesPerOp)
		}
		if b.hasAllocs && h.hasAllocs && h.allocsPerOp > b.allocsPerOp {
			fmt.Fprintf(w, "%-60s %14.0f %14.0f allocs/op (informational)\n", "  allocs:", b.allocsPerOp, h.allocsPerOp)
		}
	}
	for name := range base {
		if _, inHead := head[name]; !inHead {
			fmt.Fprintf(w, "%-60s %14s %14s %8s\n", name, "-", "-", "removed")
		}
	}
	return ok
}

// Command benchgate compares two `go test -bench` outputs (benchstat
// style) and fails when a benchmark slowed down, or allocates more bytes
// per op, beyond a threshold. CI
// runs the scheduler, simulator, RM journal and gang micro-benchmarks of
// the base and head commits alternately, one run at a time
// (scripts/bench_alternate.sh), and gates merges on:
//
//	benchgate -base base.txt -head head.txt -threshold 0.15
//
// Each file holds several runs of every benchmark, run i of head taken
// beside run i of base. A row is flagged only when head's median ns/op
// is above the third quartile of base's runs, and head's median, head's
// first quartile and the median of the run-by-run ratios head/base are
// each more than the threshold above base's (above 1 for the ratios): a
// slowdown the base's own spread explains is not the change's, neither
// is one that only head's slowest runs show (a busy machine slows some
// runs and never speeds one up, so a real slowdown moves the fast runs
// too), nor one that the runs taken side by side do not show.
// A row that reports B/op is also flagged when head's smallest B/op run
// is above base's largest by more than the threshold and by more than
// minBytesDelta: bytes per op hardly depend on the machine, so runs that
// overlap, and a few bytes more on a row that allocated next to nothing,
// are not regressions. Benchmarks present in only one file are reported
// but not gated (new or removed benchmarks are not regressions). Median
// bytes per op are shown for every row that reports them, and median
// allocation counts where head allocates more, for context; allocs/op is
// not gated.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"github.com/tetris-sched/tetris/internal/stats"
)

// runs holds one benchmark's figures, one per run in file order; bytes
// and allocs only from the runs that report them.
type runs struct {
	ns, bytes, allocs []float64
}

// parseBench reads `go test -bench` output: lines of the form
//
//	BenchmarkName/sub-8   1234   56789 ns/op   100 B/op   5 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so runs from machines
// with different core counts still match. Repeated lines (from -count,
// or from several runs appended to one file) are kept as runs.
func parseBench(path string) (map[string]*runs, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]*runs{}
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
		var ns, bytes, allocs []float64
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns = append(ns, v)
			case "B/op":
				bytes = append(bytes, v)
			case "allocs/op":
				allocs = append(allocs, v)
			}
		}
		if len(ns) == 0 {
			continue
		}
		r := out[name]
		if r == nil {
			r = &runs{}
			out[name] = r
			order = append(order, name)
		}
		r.ns = append(r.ns, ns...)
		r.bytes = append(r.bytes, bytes...)
		r.allocs = append(r.allocs, allocs...)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, order, nil
}

func main() {
	basePath := flag.String("base", "", "bench output of the base commit")
	headPath := flag.String("head", "", "bench output of the head commit")
	threshold := flag.Float64("threshold", 0.15, "max allowed ns/op slowdown and B/op growth (0.15 = +15%)")
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
		fmt.Printf("\nbenchgate: FAIL — median ns/op regression beyond base's spread and +%.0f%%, or B/op growth past every base run by +%.0f%% and %d B\n", *threshold*100, *threshold*100, minBytesDelta)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: OK")
}

// report writes the comparison table, head's rows in order, and returns
// false when some row regressed (see regressed).
func report(w io.Writer, base, head map[string]*runs, order []string, threshold float64) bool {
	ok := true
	fmt.Fprintf(w, "%-60s %14s %14s %14s %8s %8s\n", "benchmark", "base ns/op", "base IQR", "head ns/op", "delta", "pairs")
	for _, name := range order {
		h := head[name]
		b, inBase := base[name]
		if !inBase {
			fmt.Fprintf(w, "%-60s %14s %14s %14.0f %8s\n", name, "-", "-", median(h.ns), "new")
			if len(h.bytes) > 0 {
				fmt.Fprintf(w, "%-60s %14s %14.0f B/op\n", "  bytes:", "-", median(h.bytes))
			}
			continue
		}
		bm, hm := median(b.ns), median(h.ns)
		delta := 0.0
		if bm > 0 {
			delta = hm/bm - 1
		}
		mark := ""
		if regressed(b.ns, h.ns, threshold) {
			mark = "  << REGRESSION"
			ok = false
		}
		iqr := fmt.Sprintf("%.0f-%.0f", stats.Percentile(b.ns, 25), stats.Percentile(b.ns, 75))
		fmt.Fprintf(w, "%-60s %14.0f %14s %14.0f %+7.1f%% %+7.1f%%%s\n", name, bm, iqr, hm, delta*100, (pairRatio(b.ns, h.ns)-1)*100, mark)
		if len(b.bytes) > 0 && len(h.bytes) > 0 {
			mark := ""
			if bytesRegressed(b.bytes, h.bytes, threshold) {
				mark = "  << B/op REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-60s %14.0f %14.0f B/op%s\n", "  bytes:", median(b.bytes), median(h.bytes), mark)
		}
		if len(b.allocs) > 0 && len(h.allocs) > 0 && median(h.allocs) > median(b.allocs) {
			fmt.Fprintf(w, "%-60s %14.0f %14.0f allocs/op (informational)\n", "  allocs:", median(b.allocs), median(h.allocs))
		}
	}
	for name := range base {
		if _, inHead := head[name]; !inHead {
			fmt.Fprintf(w, "%-60s %14s %14s %14s %8s\n", name, "-", "-", "-", "removed")
		}
	}
	return ok
}

// regressed reports whether head's runs are slower than base's beyond
// base's spread and the threshold: head's median ns/op lies above base's
// third quartile, and head's median, head's first quartile and the
// median ratio of head's run i to base's run i are each more than
// threshold above base's (above 1 for the ratio). Two slow head runs of
// five move head's median but not its first quartile, and drift of the
// machine between runs moves both sides of a pair, so neither alone
// fails the gate. With one run a side it is the threshold test alone.
func regressed(base, head []float64, threshold float64) bool {
	past := func(b, h float64) bool { return b > 0 && h/b-1 > threshold }
	return median(head) > stats.Percentile(base, 75) &&
		past(median(base), median(head)) &&
		past(stats.Percentile(base, 25), stats.Percentile(head, 25)) &&
		past(1, pairRatio(base, head))
}

// minBytesDelta is the least B/op growth bytesRegressed flags.
const minBytesDelta = 64

// bytesRegressed reports whether head's runs allocate more bytes per op
// than base's beyond any overlap: head's smallest run is above base's
// largest by more than threshold and by more than minBytesDelta B/op.
func bytesRegressed(base, head []float64, threshold float64) bool {
	b, h := slices.Max(base), slices.Min(head)
	return h-b > minBytesDelta && h > b*(1+threshold)
}

// pairRatio is the median ratio of head's run i to base's run i.
func pairRatio(base, head []float64) float64 {
	ratios := make([]float64, min(len(base), len(head)))
	for i := range ratios {
		ratios[i] = head[i] / base[i]
	}
	return median(ratios)
}

// median is the 50th percentile of xs, interpolated between ranks.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

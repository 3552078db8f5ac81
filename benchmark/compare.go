package main

import (
	"fmt"
	"io"
)

// verdict judges B against A on one metric of one workload.
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  A's own runs spread (q3 − q1 over the median) wider than
//	            the bound, so a difference of that size cannot be told
//	            from noise
func verdict(d metricDef, a, b *metricValues) (ratio float64, v string) {
	ratio = b.Median / a.Median
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spread(a.Values) > d.Bound:
		return ratio, "unresolved"
	case worse > d.Bound:
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the ratio B/A with A as its base, the metric's bound and the verdict,
// and reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	fa, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s, seed %d, %s, GOMAXPROCS %d)\n", pathA, fa.Env.Commit, fa.Env.Seed, fa.Env.GoVersion, fa.Env.GOMAXPROCS)
	fmt.Fprintf(w, "B = %s (commit %s, seed %d, %s, GOMAXPROCS %d)\n", pathB, fb.Env.Commit, fb.Env.Seed, fb.Env.GoVersion, fb.Env.GOMAXPROCS)
	if fa.Env.Sizes != fb.Env.Sizes {
		fmt.Fprintln(w, "warning: the two files were measured at different workload sizes")
	}
	for _, wl := range workloads {
		a, b := fa.Workloads[wl.name], fb.Workloads[wl.name]
		if a == nil || b == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s (A: %d runs, B: %d runs)\n", wl.name, a.Runs, b.Runs)
		fmt.Fprintf(w, "  %-14s %-5s %14s %14s %18s %6s  %s\n", "metric", "unit", "A median", "B median", "B/A (base A)", "bound", "verdict")
		for _, d := range endToEnd {
			ma, mb := a.Metrics[d.Name], b.Metrics[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			ratio, v := verdict(d, ma, mb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "  %-14s %-5s %14.6g %14.6g %11.4f of %-4.4g %6.2f  %s (A spread %.3f)\n",
				d.Name, d.Unit, ma.Median, mb.Median, ratio, ma.Median, d.Bound, v, spread(ma.Values))
		}
		if fa.Env.Seed == fb.Env.Seed && a.Digest != "" {
			same := "identical"
			if a.Digest != b.Digest || a.Tasks != b.Tasks || a.Beats != b.Beats {
				same = "DIFFERENT"
			}
			fmt.Fprintf(w, "  counts and quality digest: %s (A %s, %d tasks, %d beats; B %s, %d tasks, %d beats)\n",
				same, a.Digest, a.Tasks, a.Beats, b.Digest, b.Tasks, b.Beats)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "  failed operations: A %d of %d, B %d of %d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
		}
	}
	return regressed, nil
}

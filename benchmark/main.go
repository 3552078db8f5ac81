// Command benchmark is the repository's one benchmark: four fixed-work,
// closed-loop workloads over the control plane's public entry points,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. BENCHMARK.json declares it; README.md explains it.
//
//	go run ./benchmark --workload rm-backlog --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -workload all -seed 1 -repeat 3 -trace 1 -out results.json
//	go run ./benchmark -compare A.json B.json
//
// The last line of standard output of a run is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is non-zero
// when a correctness gate failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: sim-fb, rm-backlog, rm-submit, fleet-sparse or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run repeats episodes for")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (with -out: both)")
		repeat   = flag.Int("repeat", 1, "runs per workload; the result file keeps every value")
		out      = flag.String("out", "", "write a result file (JSON) for -compare")
		outDir   = flag.String("outdir", "benchmark/out", "directory for journals and trace files, inside the checkout")
		compare  = flag.Bool("compare", false, "compare two result files: benchmark -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare A.json B.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(1, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *repeat < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *workload != "all" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(2, "unknown workload %q", *workload)
		}
		todo = []workloadDef{w}
	}

	file := resultFile{Workloads: map[string]*workloadResult{}}
	correct := true
	for _, w := range todo {
		wr := &workloadResult{}
		file.Workloads[w.name] = wr
		// A result file holds both kinds of run; a bare run does the one
		// kind --trace names, as the driver's contract wants.
		var last *runResult
		if *trace == 0 || *out != "" {
			for i := 0; i < *repeat; i++ {
				last = mustRun(w, *seed, *seconds, false, *outDir)
				wr.addRun(last, endToEnd)
			}
		}
		if *trace == 1 {
			last = mustRun(w, *seed, *seconds, true, *outDir)
			wr.addRun(last, perLayer)
		}
		correct = correct && wr.Failed == 0
		printResultLine(last)
	}
	if *out != "" {
		file.Env = describeEnv(*seed, *seconds)
		if err := file.write(*out); err != nil {
			fatal(1, "%v", err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// mustRun runs one run of w and prints its table.
func mustRun(w workloadDef, seed int64, seconds float64, traced bool, outDir string) *runResult {
	res, err := runWorkload(w, seed, seconds, traced, frozenSizes, outDir)
	if err != nil {
		fatal(1, "%v", err)
	}
	printRun(res)
	return res
}

// printRun prints every metric of a run by name with its unit and the
// number of samples behind it.
func printRun(r *runResult) {
	kind, defs := "untraced", endToEnd
	if r.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Printf("%s seed %d %s: %d episodes in %.1f s, GOMAXPROCS %d; per episode %d tasks, %d beats, %d timed operations\n",
		r.Workload, r.Seed, kind, r.Episodes, r.ElapsedS, runtime.GOMAXPROCS(0), r.Tasks, r.Beats, r.OpSamples)
	for _, d := range defs {
		vs := r.Samples[d.Name]
		if len(vs) == 0 { // measured once per run, not per episode
			fmt.Printf("  %-30s %14.6g %-5s (1 sample)\n", d.Name, r.Metrics[d.Name], d.Unit)
			continue
		}
		q := quartiles(vs)
		fmt.Printf("  %-30s %14.6g %-5s (%d episodes: q1 %.6g, median %.6g, q3 %.6g)\n", d.Name, r.Metrics[d.Name], d.Unit, len(vs), q[0], q[1], q[2])
	}
	if r.Digest != "" {
		fmt.Printf("  digest of (job -> finish time): %s\n", r.Digest)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

// printResultLine prints the one-object result line the driver reads.
func printResultLine(r *runResult) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(b))
}

// env stamps a result file with what the numbers depend on.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
}

func describeEnv(seed int64, seconds float64) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Seed: seed, Seconds: seconds, Sizes: frozenSizes,
	}
	// Outside a git work tree (the driver's checkout) the commit stays unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// metricValues is one metric's value in every run of a result file.
type metricValues struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type workloadResult struct {
	Runs      int                      `json:"runs"` // untraced runs; a traced run only adds the per-layer metrics
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Digest    string                   `json:"digest,omitempty"`
	Tasks     int                      `json:"tasks"`
	Beats     int                      `json:"beats"`
	Metrics   map[string]*metricValues `json:"metrics"`
}

func (w *workloadResult) addRun(r *runResult, defs []metricDef) {
	if w.Metrics == nil {
		w.Metrics = map[string]*metricValues{}
	}
	if !r.Traced {
		w.Runs++
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Digest, w.Tasks, w.Beats = r.Digest, r.Tasks, r.Beats
	for _, d := range defs {
		mv := w.Metrics[d.Name]
		if mv == nil {
			mv = &metricValues{Unit: d.Unit}
			w.Metrics[d.Name] = mv
		}
		mv.Values = append(mv.Values, r.Metrics[d.Name])
		q := quartiles(mv.Values)
		mv.Q1, mv.Median, mv.Q3 = q[0], q[1], q[2]
	}
}

type resultFile struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

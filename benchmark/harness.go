package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

// workloadDef is one benchmark workload: a name, the reason it exists,
// and a function that does one episode of its fixed work.
type workloadDef struct {
	name string
	why  string
	run  func(c *runCtx) (*episode, error)
}

var workloads = []workloadDef{
	{"sim-fb", "the paper's trace-driven simulation: only sim and the scheduler core work, no rm, journal or wire", runSimFB},
	{"rm-backlog", "dense 1-shard RM with a deep backlog: Schedule under the shard lock dominates, view build is cheap", runRMBacklog},
	{"rm-submit", "the write path: admission, routing, journal append and fsync per batch, then recovery; the scheduler idles", runRMSubmit},
	{"fleet-sparse", "a big idle fleet over the real socket: wire codec, serve loop and the per-beat view rebuild with little to place", runFleetSparse},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runCtx is what an episode gets: the seed its inputs derive from, the
// sizes, the tracer (nil in the untraced run) and a directory inside the
// checkout for journals and trace files.
type runCtx struct {
	seed   int64
	sz     sizes
	tr     *tracer
	outDir string
}

// episode is what one fixed-work repetition measured.
type episode struct {
	setupS float64
	// wallS, cpuS and allocMB cover the timed region only.
	wallS, cpuS, allocMB float64
	// spanWallS is the wall time of the region the trace's span
	// accounting covers when that is not the timed region (fleet-sparse's
	// in-process twin); 0 means wallS.
	spanWallS         float64
	tasks             int       // tasks run to completion
	beats             int       // NM heartbeats answered (sim-fb: scheduling rounds)
	opNs              []float64 // latencies of the workload's own operation, see README
	makespanVS        float64   // virtual seconds
	meanJCTVS         float64
	attempted, failed int
	// digest fingerprints (job → finish time); equal seeds must give
	// equal digests on the single-threaded workloads.
	digest string
	errs   []string
	// layer holds per-layer metrics; complete only in a traced episode.
	layer map[string]float64
}

func (e *episode) fail(format string, args ...any) {
	e.failed++
	if len(e.errs) < 8 {
		e.errs = append(e.errs, fmt.Sprintf(format, args...))
	}
}

// region measures wall time, CPU time and allocation between begin and
// end. ReadMemStats stops the world, so it is only called at the edges.
type region struct {
	t0     time.Time
	cpu0   float64
	alloc0 uint64
}

func beginRegion() region {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return region{t0: time.Now(), cpu0: cpuSeconds(), alloc0: ms.TotalAlloc}
}

func (r region) end(e *episode) {
	e.wallS = time.Since(r.t0).Seconds()
	e.cpuS = cpuSeconds() - r.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.allocMB = float64(ms.TotalAlloc-r.alloc0) / (1 << 20)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// resetPeakRSS restarts the kernel's high-water mark of the resident set
// (Linux: writing 5 to clear_refs), after handing freed memory back, so
// that a run in a process that has already done other runs reports its
// own peak. Where that is not possible the mark keeps the process's
// lifetime peak, which is the same thing for the driver's one run per
// process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident set's high-water mark since resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(rusage().Maxrss) / 1024 // Linux reports KB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// newTetris is the policy every workload runs: the default incremental
// Tetris core. The RM feeds the policy wall-clock time, which only the
// starvation guard reads; pushing its horizon out keeps decisions a
// function of the inputs alone (as internal/rm's quality harness does).
func newTetris() scheduler.Scheduler {
	cfg := scheduler.DefaultTetrisConfig()
	cfg.StarvationSec = 1e9
	return scheduler.NewTetris(cfg)
}

// thin scales every job down: each stage keeps the first frac of its
// tasks, at least one. The generators' job classes are sized for runs of
// minutes; thinning keeps the number of jobs and their mix while an
// episode stays a second or two.
func thin(w *workload.Workload, frac float64) {
	for _, j := range w.Jobs {
		for _, st := range j.Stages {
			keep := int(float64(len(st.Tasks))*frac + 0.5)
			if keep < 1 {
				keep = 1
			}
			st.Tasks = st.Tasks[:keep]
		}
	}
}

// arrange lays a fixed job population out from the seed. The population
// (job sizes, task demands, durations, arrival times) comes from
// sizes.PopulationSeed and is the same in every run: the trace
// generators are heavy-tailed, and a population's total work and shape
// swing by a third between seeds, more than any regression bound. The
// seed decides what is left: the order of the jobs (they are renumbered
// in it, which reorders submissions and every tie the policy breaks by
// ID) and the machine each input block lives on (one permutation of the
// machines, which moves every locality preference).
func arrange(wl *workload.Workload, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(wl.Jobs), func(a, b int) { wl.Jobs[a], wl.Jobs[b] = wl.Jobs[b], wl.Jobs[a] })
	perm := rng.Perm(wl.NumMachines)
	for id, j := range wl.Jobs {
		j.ID = id
		for _, st := range j.Stages {
			for _, t := range st.Tasks {
				t.ID.Job = id
				for b := range t.Inputs {
					if m := t.Inputs[b].Machine; m >= 0 {
						t.Inputs[b].Machine = perm[m]
					}
				}
			}
		}
	}
}

// finishDigest fingerprints a (job → finish time) map.
func finishDigest(finish map[int]float64) string {
	ids := make([]int, 0, len(finish))
	for id := range finish {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d:%.9g\n", id, finish[id])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metricDef mirrors one metric entry of BENCHMARK.json; bench_test.go
// holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd values of one episode, keyed like the endToEnd table.
func (e *episode) endToEnd() map[string]float64 {
	op, _ := percentile(sortedCopy(e.opNs), 0.5)
	return map[string]float64{
		"setup_s":     e.setupS,
		"wall_s":      e.wallS,
		"cpu_s":       e.cpuS,
		"alloc_mb":    e.allocMB,
		"tasks_per_s": float64(e.tasks) / e.wallS,
		"beats_per_s": float64(e.beats) / e.wallS,
		"op_p50_us":   op / 1e3,
		"makespan_vs": e.makespanVS,
		"mean_jct_vs": e.meanJCTVS,
	}
}

// runResult is one run: the medians over its episodes plus what the
// driver's result line needs.
type runResult struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Episodes  int                  `json:"episodes"`
	ElapsedS  float64              `json:"elapsed_s"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Digest    string               `json:"digest,omitempty"`
	Tasks     int                  `json:"tasks"`
	Beats     int                  `json:"beats"`
	OpSamples int                  `json:"op_samples"` // per episode
	Metrics   map[string]float64   `json:"metrics"`    // median over episodes
	Samples   map[string][]float64 `json:"samples"`    // one value per episode
}

// runWorkload repeats episodes of w from fresh set-ups until seconds of
// wall time are used. The untraced run yields the end-to-end metrics,
// each the quietQuartile of its episodes. The traced run alternates
// untraced and traced episodes and yields the per-layer metrics, each
// the median of the traced ones; the ratio of the two kinds' timed
// regions is the tracing overhead.
func runWorkload(w workloadDef, seed int64, seconds float64, traced bool, sz sizes, outDir string) (*runResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: seed, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	resetPeakRSS()
	start := time.Now()
	var plainWall, tracedWall []float64
	var lastTrace *tracer
	for res.Episodes == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC() // episodes start from a collected heap, not the last one's garbage
		c := &runCtx{seed: seed, sz: sz, outDir: outDir}
		ep, err := w.run(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.absorb(ep)
		plainWall = append(plainWall, ep.wallS)
		if !traced {
			for k, v := range ep.endToEnd() {
				res.Samples[k] = append(res.Samples[k], v)
			}
			continue
		}
		runtime.GC()
		c.tr = newTracer()
		ep, err = w.run(c)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		res.absorb(ep)
		tracedWall = append(tracedWall, ep.wallS)
		for k, v := range ep.layer {
			res.Samples[k] = append(res.Samples[k], v)
		}
		lastTrace = c.tr
	}
	res.ElapsedS = time.Since(start).Seconds()
	for k, vs := range res.Samples {
		res.Metrics[k] = median(vs)
	}
	for _, d := range endToEnd {
		if vs, ok := res.Samples[d.Name]; ok {
			res.Metrics[d.Name] = quietQuartile(vs, d.Better)
		}
	}
	if traced {
		res.Metrics["driver.trace_overhead_frac"] = quietQuartile(tracedWall, "lower")/quietQuartile(plainWall, "lower") - 1
		if err := lastTrace.write(fmt.Sprintf("%s/trace_%s.json", outDir, w.name)); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	return res, nil
}

// quietQuartile is the figure a run reports for an end-to-end metric: the
// quartile of its episodes on the metric's better side (the first for a
// time, the third for a rate). The box is shared: a neighbour's burst
// slows some episodes by a fifth and nothing ever speeds one up, so the
// slow side of the distribution measures the neighbours and the fast side
// the program. Across runs this figure spreads half as wide as the
// median; a quartile rather than the extreme keeps a single lucky episode
// from setting it.
func quietQuartile(vs []float64, better string) float64 {
	q := quartiles(vs)
	if better == "higher" {
		return q[2]
	}
	return q[0]
}

// absorb folds one episode's counts and correctness verdict into the run.
func (r *runResult) absorb(e *episode) {
	r.Episodes++
	r.Attempted += e.attempted
	r.Failed += e.failed
	r.Errors = append(r.Errors, e.errs...)
	r.Tasks, r.Beats, r.OpSamples = e.tasks, e.beats, len(e.opNs)
	if r.Digest == "" {
		r.Digest = e.digest
	} else if e.digest != r.Digest {
		r.Failed++
		r.Errors = append(r.Errors, fmt.Sprintf("digest %s differs from the run's first episode %s", e.digest, r.Digest))
	}
}

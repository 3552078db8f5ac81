package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/sim"
	"github.com/tetris-sched/tetris/internal/workload"
)

func init() {
	register(Experiment{ID: "est-err", Paper: "§4.1", Desc: "Tetris under imperfect demand estimates", Run: runEstErr})
}

// runEstErr measures how sensitive Tetris's gains are to the quality of
// its demand estimates (§4.1): the scheduler sees perturbed peaks while
// the fluid model runs the true ones. The paper argues over-estimation
// is safe (the tracker reclaims idle resources — modeled by the sim's
// ramp-up decay) while under-estimation re-introduces over-allocation.
func runEstErr(p Params, w io.Writer) error {
	p = p.WithDefaults()
	r := deploymentRunner(p)
	fair, err := r.run(scheduler.NewSlotFair())
	if err != nil {
		return err
	}
	variants := []struct {
		name   string
		oracle func(seed int64) func(*scheduler.JobState, *workload.Task) (resources.Vector, float64)
	}{
		{"perfect", nil},
		{"noisy ±30%", func(seed int64) func(*scheduler.JobState, *workload.Task) (resources.Vector, float64) {
			rng := rand.New(rand.NewSource(seed))
			return func(_ *scheduler.JobState, t *workload.Task) (resources.Vector, float64) {
				f := 0.7 + 0.6*rng.Float64()
				return t.Peak.Scale(f), t.PeakDuration() * f
			}
		}},
		{"1.5× over-estimate", func(int64) func(*scheduler.JobState, *workload.Task) (resources.Vector, float64) {
			return func(_ *scheduler.JobState, t *workload.Task) (resources.Vector, float64) {
				return t.Peak.Scale(1.5), t.PeakDuration() * 1.5
			}
		}},
		{"0.5× under-estimate", func(int64) func(*scheduler.JobState, *workload.Task) (resources.Vector, float64) {
			return func(_ *scheduler.JobState, t *workload.Task) (resources.Vector, float64) {
				return t.Peak.Scale(0.5), t.PeakDuration() * 0.5
			}
		}},
	}
	fmt.Fprintf(w, "§4.1: Tetris gains vs slot-fair under demand-estimation error\n")
	fmt.Fprintf(w, "(expectation: over-estimation is nearly free — the tracker reclaims after ramp-up;\n")
	fmt.Fprintf(w, " under-estimation erodes the no-over-allocation guarantee)\n\n")
	for _, v := range variants {
		v := v
		res, err := r.run(newTetris(), func(c *sim.Config) {
			if v.oracle != nil {
				c.EstimateDemand = v.oracle(p.Seed)
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s avgJCT gain %6.1f%%   makespan gain %6.1f%%   mean task %5.1fs\n",
			v.name,
			sim.Improvement(fair.AvgJCT(), res.AvgJCT()),
			sim.Improvement(fair.Makespan, res.Makespan),
			res.MeanTaskDuration())
	}
	return nil
}

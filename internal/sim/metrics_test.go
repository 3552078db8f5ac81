package sim

import (
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/workload"
)

func TestSimMetricsPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(4, resources.New(2, 2, 0, 0, 0, 0), workload.Work{CPUSeconds: 20})
	run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris(), SampleEvery: 1, Metrics: reg})

	if got := reg.Counter("tetris_sim_placements_total", "").Value(); got != 4 {
		t.Errorf("placements counter = %d, want 4", got)
	}
	if n := reg.Histogram("tetris_sim_schedule_round_seconds", "").Count(); n == 0 {
		t.Error("schedule-round histogram recorded nothing")
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`tetris_sim_utilization{resource="cpu"}`,
		`tetris_sim_demand{resource="mem"}`,
		"tetris_sim_fairness_deviation",
		"tetris_sim_fault_log_dropped 0",
		"tetris_sim_tasks_running",
		"tetris_sim_time_seconds",
		"tetris_sim_placements_total 4",
		`tetris_sim_sched_stage_scans_total{result="scanned"}`,
		`tetris_sim_sched_stage_scans_total{result="pruned"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSimMetricsStageScans: a backlog deeper than the cluster makes the
// Tetris core prune — once the first full machine has shown that no head
// task fits, the other full machines cost one comparison — and the sim
// publishes both sides of the split.
func TestSimMetricsStageScans(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl := cluster.New(3, cluster.FacebookProfile(), 0)
	wl := oneJob(120, resources.New(2, 2, 0, 0, 0, 0), workload.Work{CPUSeconds: 20})
	run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris(), SampleEvery: 1, Metrics: reg})
	for _, result := range []string{"scanned", "pruned"} {
		if reg.Counter(telemetry.Label("tetris_sim_sched_stage_scans_total", "result", result), "").Value() == 0 {
			t.Errorf("tetris_sim_sched_stage_scans_total{result=%q} never moved", result)
		}
	}
}

// TestSimMetricsNilRegistry checks a nil Metrics config is safe: the
// sim records into a private registry and runs normally.
func TestSimMetricsNilRegistry(t *testing.T) {
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(1, 1, 0, 0, 0, 0), workload.Work{CPUSeconds: 10})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris(), SampleEvery: 1})
	if len(res.Samples) == 0 {
		t.Error("no samples recorded")
	}
}

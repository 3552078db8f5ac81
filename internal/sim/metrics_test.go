package sim

import (
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/trace"
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
		"tetris_sim_sched_machine_prunes_total 0",
		`tetris_sim_rate_nodes_total{result="recomputed"}`,
		`tetris_sim_rate_nodes_total{result="clean"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSimMetricsStageScans: a backlog deeper than the cluster makes the
// Tetris core prune — once the first full machine has shown that no head
// task fits, the other full machines cost one comparison, and so does
// each task reading a block on a full machine — and the sim publishes
// both sides of the stage split, the machine prunes and the local prunes.
func TestSimMetricsStageScans(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl := cluster.New(3, cluster.FacebookProfile(), 0)
	wl := oneJob(120, resources.New(2, 2, 10, 0, 0, 0), workload.Work{CPUSeconds: 20},
		workload.InputBlock{Machine: 0, SizeMB: 50})
	run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris(), SampleEvery: 1, Metrics: reg})
	for _, result := range []string{"scanned", "pruned"} {
		if reg.Counter(telemetry.Label("tetris_sim_sched_stage_scans_total", "result", result), "").Value() == 0 {
			t.Errorf("tetris_sim_sched_stage_scans_total{result=%q} never moved", result)
		}
	}
	for _, name := range []string{"tetris_sim_sched_local_prunes_total", "tetris_sim_sched_machine_prunes_total"} {
		if reg.Counter(name, "").Value() == 0 {
			t.Errorf("%s never moved", name)
		}
	}
}

// TestSimMetricsRateNodes: the simulator publishes how many resource
// nodes each event-loop iteration re-derived and how many it left alone.
// On a cluster where most machines see nothing arrive or leave at a given
// event, the clean side dominates — which is also the witness that rates
// follow the dirty set instead of being recomputed wholesale.
func TestSimMetricsRateNodes(t *testing.T) {
	reg := telemetry.NewRegistry()
	wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 8, NumMachines: 40, ArrivalSpanSec: 200, MeanTaskSeconds: 10})
	s, err := New(Config{Cluster: cluster.NewDeployment(40), Workload: wl, Scheduler: tetris(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	recomputed := reg.Counter(telemetry.Label("tetris_sim_rate_nodes_total", "result", "recomputed"), "").Value()
	clean := reg.Counter(telemetry.Label("tetris_sim_rate_nodes_total", "result", "clean"), "").Value()
	if recomputed != s.rateNodesRecomputed || clean != s.rateNodesClean {
		t.Errorf("published %d recomputed, %d clean; the simulator counted %d and %d", recomputed, clean, s.rateNodesRecomputed, s.rateNodesClean)
	}
	const nodes = 40 + 2*2 // machines, and two racks' uplinks in two directions
	if total := recomputed + clean; total == 0 || total%nodes != 0 {
		t.Fatalf("recomputed + clean = %d, want a positive multiple of %d nodes", total, nodes)
	}
	if recomputed < nodes {
		t.Errorf("%d nodes recomputed, want at least the %d of the first iteration", recomputed, nodes)
	}
	if recomputed*4 > clean {
		t.Errorf("%d nodes recomputed against %d clean: rates no longer follow the dirty set", recomputed, clean)
	}
}

// TestSimMetricsRateNodesShareARegistry: runs that publish into one
// registry, as tetris-sim -compare does, add up. Each run reported its
// own cumulative count minus the shared counter's value, so the second
// run's subtraction wrapped around and the counter fell back to that
// run's count alone.
func TestSimMetricsRateNodesShareARegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var recomputed, clean uint64
	for i := 0; i < 2; i++ {
		wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 8, NumMachines: 40, ArrivalSpanSec: 200, MeanTaskSeconds: 10})
		s, err := New(Config{Cluster: cluster.NewDeployment(40), Workload: wl, Scheduler: tetris(), Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		recomputed += s.rateNodesRecomputed
		clean += s.rateNodesClean
	}
	gotR := reg.Counter(telemetry.Label("tetris_sim_rate_nodes_total", "result", "recomputed"), "").Value()
	gotC := reg.Counter(telemetry.Label("tetris_sim_rate_nodes_total", "result", "clean"), "").Value()
	if gotR != recomputed || gotC != clean {
		t.Errorf("after two runs: published %d recomputed, %d clean; the runs counted %d and %d in all", gotR, gotC, recomputed, clean)
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

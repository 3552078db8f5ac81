package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// healthy returns the snapshot of a passing 4-node, 2-shard smoke run.
func healthy() *snapshot {
	return &snapshot{
		Schema:   1,
		Kind:     "hollow-scale",
		Scenario: "smoke",
		Config:   map[string]string{"nodes": "4", "shards": "2"},
		Metrics: map[string]float64{
			"nodes":                        4,
			"shards":                       2,
			"rounds_per_sec":               12.5,
			"beats_per_sec":                8,
			"heartbeat_p50_seconds":        0.002,
			"heartbeat_p99_seconds":        0.011,
			"registers_total":              4,
			"tasks_completed_total":        30,
			"shard0_beats_per_sec":         4,
			"shard0_heartbeat_p99_seconds": 0.01,
			"shard1_beats_per_sec":         4,
			"shard1_heartbeat_p99_seconds": 0.01,
			"redials_total":                0, // nothing the run turned on demands it
		},
	}
}

// withStorm turns the tenant storm on, with every storm metric healthy.
func withStorm(s *snapshot) {
	s.Config["tenants"] = "1000000"
	s.Metrics["storm_admitted_total"] = 900
	s.Metrics["storm_rejected_total"] = 100
	s.Metrics["storm_batches_total"] = 70
	s.Metrics["submit_p50_seconds"] = 0.004
	s.Metrics["submit_p99_seconds"] = 0.2
}

// asGang makes the run a gang scenario, with every gang metric healthy.
func asGang(s *snapshot) {
	s.Scenario = "gang"
	s.Metrics["gangs_admitted_total"] = 20
	s.Metrics["gang_admit_p50_seconds"] = 0.5
	s.Metrics["preemptions_total"] = 40
	s.Metrics["gang_releases_total"] = 10
	s.Metrics["jobs_finished"] = 60
	s.Metrics["preemptions_per_sec"] = 1
}

// TestVerdict drives the run's own verdict over passing and failing
// snapshots: a failure names the offending metric and the value it had,
// and what the run turned on decides which metrics are demanded.
func TestVerdict(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*snapshot)
		want   []string
	}{
		{name: "all required present", mutate: func(*snapshot) {}},
		{
			name:   "missing metric named in output",
			mutate: func(s *snapshot) { delete(s.Metrics, "tasks_completed_total") },
			want:   []string{"tasks_completed_total missing"},
		},
		{
			name:   "zero metric named with its value",
			mutate: func(s *snapshot) { s.Metrics["tasks_completed_total"] = 0 },
			want:   []string{"tasks_completed_total = 0 (want nonzero)"},
		},
		{
			name:   "NaN metric rejected",
			mutate: func(s *snapshot) { s.Metrics["rounds_per_sec"] = math.NaN() },
			want:   []string{"rounds_per_sec = NaN (not finite)"},
		},
		{
			name:   "non-finite metric rejected",
			mutate: func(s *snapshot) { s.Metrics["redials_total"] = math.Inf(1) },
			want:   []string{"redials_total = +Inf (not finite)"},
		},
		{
			name: "every failure reported",
			mutate: func(s *snapshot) {
				s.Metrics["beats_per_sec"] = 0
				delete(s.Metrics, "shard1_heartbeat_p99_seconds")
			},
			want: []string{"beats_per_sec = 0 (want nonzero)", "shard1_heartbeat_p99_seconds missing"},
		},
		{
			name: "shard without a node exempt",
			mutate: func(s *snapshot) {
				s.Metrics["nodes"] = 2
				s.Metrics["shards"] = 8
				s.Metrics["shard2_beats_per_sec"] = 0
			},
		},
		{name: "max bound satisfied", mutate: withStorm},
		{
			name: "storm metrics demanded",
			mutate: func(s *snapshot) {
				withStorm(s)
				delete(s.Metrics, "submit_p99_seconds")
				s.Metrics["storm_rejected_total"] = 0
			},
			want: []string{"storm_rejected_total = 0 (want nonzero)", "submit_p99_seconds missing"},
		},
		{
			name: "max bound exceeded",
			mutate: func(s *snapshot) {
				withStorm(s)
				s.Metrics["submit_p99_seconds"] = 0.7
			},
			want: []string{"submit_p99_seconds = 0.7 (bound <= 0.5)"},
		},
		{
			name: "max accepts zero",
			mutate: func(s *snapshot) {
				withStorm(s)
				s.Metrics["submit_p99_seconds"] = 0
			},
		},
		{name: "gang run passes", mutate: asGang},
		{
			name: "nonzero and max failures both",
			mutate: func(s *snapshot) {
				asGang(s)
				s.Metrics["gang_releases_total"] = 0
				s.Metrics["preemptions_per_sec"] = 60
			},
			want: []string{"gang_releases_total = 0 (want nonzero)", "preemptions_per_sec = 60 (bound <= 50)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := healthy()
			tc.mutate(s)
			if got := verdict(s); !slices.Equal(got, tc.want) {
				t.Errorf("verdict = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSnapshotShape pins the snapshot's top-level keys, which the
// committed BENCH_scale_*.json files share.
func TestSnapshotShape(t *testing.T) {
	s := healthy()
	s.Unix = 1700000000
	path := filepath.Join(t.TempDir(), "BENCH_scale_smoke.json")
	if err := s.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"config", "env", "kind", "metrics", "scenario", "schema", "unix"}; !slices.Equal(keys, want) {
		t.Errorf("top-level keys = %q, want %q", keys, want)
	}
	if e := describeEnv(); e.GoVersion == "" || e.GOMAXPROCS < 1 || e.NProc < 1 {
		t.Errorf("describeEnv = %+v, want the Go version, GOMAXPROCS and nproc stamped", e)
	}

	s.Metrics["rounds_per_sec"] = math.NaN()
	if err := s.write(path); err == nil {
		t.Error("a NaN metric was written; JSON has no NaN")
	}
}

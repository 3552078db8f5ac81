package rm

// End-to-end telemetry test: a live loopback cluster (real sockets,
// journaled RM, two NMs, one AM) is scraped over HTTP mid-lifecycle.
// The scrape must show placements, journal fsync latencies and NM
// heartbeat RTTs; the decision-trace endpoint must explain at least one
// placed and one skipped task.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/am"
	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
)

// httpGet fetches one telemetry endpoint as a string.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(body)
}

// metricValue extracts the value of an exact series name from a
// Prometheus text exposition, or -1 if absent.
func metricValue(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, series+" %g", &v); err == nil &&
			strings.HasPrefix(line, series+" ") {
			return v
		}
	}
	return -1
}

func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := scheduler.NewDecisionRing(512, 1)
	schedCfg := scheduler.DefaultTetrisConfig()
	schedCfg.Trace = ring

	srv, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: func() scheduler.Scheduler { return scheduler.NewTetris(schedCfg) },
		NewEstimator: estimator.New,
		JournalDir:   t.TempDir(),
		JournalSync:  journal.SyncAlways,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := &telemetry.Server{
		Registry: reg,
		Status:   func() (any, error) { return srv.ClusterStatus(), nil },
		Trace:    func() any { return ring.Snapshot() },
	}
	if err := ts.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	base := "http://" + ts.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var nmWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		node := nm.New(nm.Config{
			NodeID:      i,
			Capacity:    resources.New(16, 32, 200, 200, 1000, 1000),
			RMAddr:      srv.Addr(),
			Heartbeat:   10 * time.Millisecond,
			Compression: 200,
			Metrics:     reg,
		})
		nmWG.Add(1)
		go func() {
			defer nmWG.Done()
			node.Run(ctx)
		}()
	}
	defer nmWG.Wait()
	defer cancel()

	// 40 tasks of 2 cores / 4 GB on two 16-core / 32-GB nodes: every
	// round fills both machines, so the traces contain placed tasks,
	// outscored losing candidates and infeasible-on-full-machine skips.
	if _, err := am.Run(ctx, am.Config{
		RMAddr:  srv.Addr(),
		Job:     chaosJob(0, 40),
		Poll:    10 * time.Millisecond,
		Metrics: reg,
	}); err != nil {
		t.Fatalf("am: %v", err)
	}

	metrics := httpGet(t, base+"/metrics")
	// Every RM series carries its shard label, at one shard too.
	if v := metricValue(metrics, `tetris_rm_placements_total{shard="0"}`); v < 40 {
		t.Errorf("tetris_rm_placements_total = %v, want >= 40", v)
	}
	if v := metricValue(metrics, `tetris_rm_journal_fsync_seconds_count{shard="0"}`); v <= 0 {
		t.Errorf("tetris_rm_journal_fsync_seconds_count = %v, want > 0 under SyncAlways", v)
	}
	if v := metricValue(metrics, "tetris_nm_heartbeat_rtt_seconds_count"); v <= 0 {
		t.Errorf("tetris_nm_heartbeat_rtt_seconds_count = %v, want > 0", v)
	}
	if v := metricValue(metrics, `tetris_rm_sched_stage_scans_total{shard="0",result="scanned"}`); v <= 0 {
		t.Errorf("tetris_rm_sched_stage_scans_total{result=scanned} = %v, want > 0", v)
	}
	// Every round is traced here (ring sampling 1), and a traced round
	// prunes like any other.
	if v := metricValue(metrics, `tetris_rm_sched_stage_scans_total{shard="0",result="pruned"}`); v <= 0 {
		t.Errorf("tetris_rm_sched_stage_scans_total{result=pruned} = %v, want > 0 with every round traced", v)
	}
	if v := metricValue(metrics, `tetris_rm_nodes_live{shard="0"}`); v != 2 {
		t.Errorf("tetris_rm_nodes_live = %v, want 2", v)
	}
	if v := metricValue(metrics, "tetris_am_jobs_finished_total"); v != 1 {
		t.Errorf("tetris_am_jobs_finished_total = %v, want 1", v)
	}

	var status struct {
		Nodes int   `json:"nodes"`
		Live  []int `json:"live"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/status")), &status); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	if status.Nodes != 2 || len(status.Live) != 2 {
		t.Errorf("status = %+v, want 2 live nodes", status)
	}

	var traces []scheduler.RoundTrace
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/trace")), &traces); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("no decision traces recorded")
	}
	placed, skipped := 0, 0
	var pruned uint64
	for _, rt := range traces {
		pruned += rt.Scan.StagePrunes
		for _, d := range rt.Decisions {
			if d.Outcome == scheduler.OutcomePlaced {
				placed++
			} else {
				skipped++
			}
		}
	}
	if placed == 0 || skipped == 0 {
		t.Errorf("traces explain %d placed and %d skipped decisions, want both > 0", placed, skipped)
	}
	if pruned == 0 {
		t.Error("traces count no pruned stage visit, want > 0")
	}
}

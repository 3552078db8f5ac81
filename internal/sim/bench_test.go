package sim

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/trace"
)

// BenchmarkSimRun times whole simulation runs at 100 machines: the
// benchmark's sim-fb shape (a Facebook-like trace on the Facebook
// cluster), and the same trace on the deployment cluster, whose
// oversubscribed rack uplinks add the uplink nodes to the rate
// computation. Besides time and allocations it reports how many resource
// nodes an event-loop iteration re-derived — the figure the incremental
// rates exist to keep small (the cluster has 100 machine nodes, the
// deployment cluster 10 uplink nodes more).
func BenchmarkSimRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		cl   func(int) *cluster.Cluster
	}{
		{"facebook", cluster.NewFacebook},
		{"deployment", cluster.NewDeployment},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var recomputed, iterations uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wl := trace.GenerateFacebookLike(trace.Config{
					Seed: 42, NumJobs: 260, NumMachines: 100, ArrivalSpanSec: 1500, RecurringFraction: 0.4,
				})
				s, err := New(Config{Cluster: bc.cl(100), Workload: wl, Scheduler: tetris(), RecordTasks: true})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
				recomputed += s.rateNodesRecomputed
				iterations += (s.rateNodesRecomputed + s.rateNodesClean) / uint64(len(s.nodes))
			}
			b.ReportMetric(float64(recomputed)/float64(iterations), "rate-nodes/iter")
		})
	}
}

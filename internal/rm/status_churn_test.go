package rm

// ClusterStatusReply under node churn: liveness lists must come back in
// ascending ID order, the fault log must stay ring-bounded, and the
// eviction counter must account for every dropped record.

import (
	"bytes"
	"sort"
	"testing"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
)

func TestClusterStatusUnderChurn(t *testing.T) {
	const ringCap = 4
	// No NodeTimeout: deaths are injected directly through markDead so
	// the churn sequence is deterministic — no background watcher races.
	reg := telemetry.NewRegistry()
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		FaultLogCap:  ringCap,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	const nodes = 6
	for i := 0; i < nodes; i++ {
		s.RegisterMachine(i, capV)
	}

	// Kill nodes 0–3: four MachineCrash records.
	for _, id := range []int{0, 1, 2, 3} {
		killNode(s, id)
	}

	st := s.ClusterStatus()
	if got, want := st.Nodes, nodes; got != want {
		t.Fatalf("Nodes = %d, want %d", got, want)
	}
	if got, want := len(st.Dead), 4; got != want {
		t.Fatalf("Dead = %v, want 4 nodes", st.Dead)
	}

	// Nodes 0 and 1 come back (fresh registrations of confirmed-dead
	// nodes): two MachineRecover records — six total, ring holds four.
	s.RegisterMachine(0, capV)
	s.RegisterMachine(1, capV)

	st = s.ClusterStatus()
	if want := []int{0, 1, 4, 5}; !equalInts(st.Live, want) {
		t.Errorf("Live = %v, want %v", st.Live, want)
	}
	if want := []int{2, 3}; !equalInts(st.Dead, want) {
		t.Errorf("Dead = %v, want %v", st.Dead, want)
	}
	if !sort.IntsAreSorted(st.Live) || !sort.IntsAreSorted(st.Dead) {
		t.Errorf("liveness lists not ascending: live %v dead %v", st.Live, st.Dead)
	}

	// Ring bounding: 4 crashes + 2 recoveries happened, the ring keeps
	// the most recent ringCap and counts the rest as dropped.
	if got := len(st.Faults); got != ringCap {
		t.Fatalf("fault log holds %d records, want ring cap %d", got, ringCap)
	}
	if got, want := st.DroppedFaults, uint64(6-ringCap); got != want {
		t.Errorf("DroppedFaults = %d, want %d", got, want)
	}
	wantKinds := []faults.Kind{faults.MachineCrash, faults.MachineCrash, faults.MachineRecover, faults.MachineRecover}
	for i, rec := range st.Faults {
		if rec.Kind != wantKinds[i] {
			t.Errorf("fault[%d].Kind = %v, want %v (log: %+v)", i, rec.Kind, wantKinds[i], st.Faults)
		}
		if i > 0 && rec.Time < st.Faults[i-1].Time {
			t.Errorf("fault log out of chronological order at %d: %+v", i, st.Faults)
		}
	}
	// The two surviving crash records are the two highest silent IDs —
	// markDead sweeps detector expirations in ascending ID order.
	if st.Faults[0].Machine != 2 || st.Faults[1].Machine != 3 {
		t.Errorf("surviving crash records = nodes %d,%d, want 2,3",
			st.Faults[0].Machine, st.Faults[1].Machine)
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(expo.String(), `tetris_rm_fault_log_dropped{shard="0"}`); got != float64(st.DroppedFaults) {
		t.Errorf("fault_log_dropped gauge = %v, status reports %d", got, st.DroppedFaults)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

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
	const ringCap = faults.DefaultRingCap
	// No NodeTimeout: deaths are injected directly through markDead so
	// the churn sequence is deterministic — no background watcher races.
	reg := telemetry.NewRegistry()
	s, err := NewShardedInProcess(ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
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

	// Node 5 flaps until the log is four records short of full: a
	// MachineCrash and a MachineRecover record per flap.
	const flaps = (ringCap - 4) / 2
	for i := 0; i < flaps; i++ {
		killNode(s, 5)
		s.RegisterMachine(5, capV)
	}

	// Kill nodes 0–3: four MachineCrash records fill the log.
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
	// nodes): two MachineRecover records evict the two oldest.
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

	// Ring bounding: 2·flaps + 4 crashes + 2 recoveries happened, the
	// ring keeps the most recent ringCap and counts the rest as dropped.
	if got := len(st.Faults); got != ringCap {
		t.Fatalf("fault log holds %d records, want ring cap %d", got, ringCap)
	}
	if got, want := st.DroppedFaults, uint64(2*flaps+6-ringCap); got != want {
		t.Errorf("DroppedFaults = %d, want %d", got, want)
	}
	// Oldest first: the surviving flaps of node 5 (the first flap was
	// evicted), then the crashes of nodes 0–3 in the order they were
	// killed, then the recoveries of nodes 0 and 1.
	type rec struct {
		kind    faults.Kind
		machine int
	}
	var want []rec
	for i := 1; i < flaps; i++ {
		want = append(want, rec{faults.MachineCrash, 5}, rec{faults.MachineRecover, 5})
	}
	for _, id := range []int{0, 1, 2, 3} {
		want = append(want, rec{faults.MachineCrash, id})
	}
	want = append(want, rec{faults.MachineRecover, 0}, rec{faults.MachineRecover, 1})
	for i, r := range st.Faults {
		if got := (rec{r.Kind, r.Machine}); got != want[i] {
			t.Fatalf("fault[%d] = %v on node %d, want %v on node %d", i, r.Kind, r.Machine, want[i].kind, want[i].machine)
		}
		if i > 0 && r.Time < st.Faults[i-1].Time {
			t.Fatalf("fault log out of chronological order at %d: %+v", i, st.Faults[i-1:i+1])
		}
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

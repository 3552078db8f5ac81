package faults

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// naiveDetector is the full-scan detector the early-return one replaced;
// the property test holds the two to the same answers.
type naiveDetector struct {
	timeout  float64
	lastSeen map[int]float64
}

func (d *naiveDetector) expired(now float64) []int {
	var out []int
	for id, at := range d.lastSeen {
		if now-at > d.timeout {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	for _, id := range out {
		delete(d.lastSeen, id)
	}
	return out
}

// TestDetectorMatchesFullScan drives the detector and a naive full scan
// with the same seeded sequence of Beat/Expired calls — clocks that
// mostly advance but sometimes step back, stamps older than anything
// tracked, expired and re-armed nodes — and requires the same report
// from every Expired call.
func TestDetectorMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		const timeout = 5.0
		d := NewDetector(timeout)
		ref := &naiveDetector{timeout: timeout, lastSeen: make(map[int]float64)}
		now := 0.0
		for step := 0; step < 20000; step++ {
			now += rng.Float64() * 0.4
			if rng.Intn(50) == 0 {
				now -= rng.Float64() * 3 // a clock that steps back
			}
			id := rng.Intn(40)
			switch op := rng.Intn(10); {
			case op < 5:
				at := now
				if rng.Intn(8) == 0 {
					at -= rng.Float64() * 2 * timeout // a stale stamp
				}
				d.Beat(id, at)
				ref.lastSeen[id] = at
			default:
				got, want := d.Expired(now), ref.expired(now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Expired(%v) = %v, full scan says %v", seed, step, now, got, want)
				}
			}
			if len(d.lastSeen) != len(ref.lastSeen) {
				t.Fatalf("seed %d step %d: tracking %d nodes, full scan tracks %d", seed, step, len(d.lastSeen), len(ref.lastSeen))
			}
		}
	}
}

// BenchmarkDetectorExpired is the per-heartbeat cost of the failure
// sweep on a healthy fleet: every node beats in turn and each beat asks
// for expirations, as the RM's heartbeat path does.
func BenchmarkDetectorExpired(b *testing.B) {
	const nodes = 10000
	d := NewDetector(10)
	for id := 0; id < nodes; id++ {
		d.Beat(id, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i) / nodes // one sweep of the fleet per second
		d.Beat(i%nodes, now)
		if dead := d.Expired(now); dead != nil {
			b.Fatalf("healthy node expired: %v", dead)
		}
	}
}

package hollow

import (
	"math/rand"
	"sort"
	"sync"
)

// reservoir keeps a bounded uniform sample of observations so exact
// quantiles survive arbitrarily long runs in constant memory. The
// telemetry histograms use ×2 geometric buckets — too coarse for the
// p50/p99 heartbeat-RTT numbers the scale snapshots track — so the
// harness samples raw values instead (Vitter's algorithm R).
type reservoir struct {
	mu      sync.Mutex
	rng     *rand.Rand
	samples []float64
	seen    int64
	cap     int
}

func newReservoir(capacity int, seed int64) *reservoir {
	if capacity <= 0 {
		capacity = 8192
	}
	return &reservoir{
		rng: rand.New(rand.NewSource(seed)),
		cap: capacity,
	}
}

func (r *reservoir) observe(v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		return
	}
	if i := r.rng.Int63n(r.seen); i < int64(r.cap) {
		r.samples[i] = v
	}
}

func (r *reservoir) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// quantile returns the q-quantile (q in [0,1]) of the sampled
// population, or 0 when nothing was observed.
func (r *reservoir) quantile(q float64) float64 {
	r.mu.Lock()
	sorted := append([]float64(nil), r.samples...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

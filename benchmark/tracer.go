package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/tetris-sched/tetris/internal/scheduler"
)

// span is one call into a layer, recorded by the driver around the call:
// the layers themselves carry no tracing.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Op     int32  `json:"op"`     // sweep or batch the call belongs to
}

// tracer keeps a workload's spans in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op, so workload code
// has one path.
//
// begin/end are for the driver goroutine and nest; child records a
// finished span under the driver's innermost open one and may be called
// from other goroutines (a sharded RM runs its shards' scheduling rounds
// on their own goroutines while the driver waits in the batch call).
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	stack []int32
	op    int32
	// Spans [timedFrom, timedTo) belong to the timed region; earlier
	// ones to set-up, later ones to the checks and probes after it.
	timedFrom, timedTo int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setOp stamps the following spans with a sweep or batch id.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

// markTimed records that set-up is over and the timed region begins.
func (t *tracer) markTimed() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timedFrom = len(t.spans)
	t.mu.Unlock()
}

// markDone records that the timed region is over.
func (t *tracer) markDone() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timedTo = len(t.spans)
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.top(), Op: t.op})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// child records a span that ran from start to end (tracer clock) under
// the driver's innermost open span.
func (t *tracer) child(name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.top(), Op: t.op})
	t.mu.Unlock()
}

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// layerTotals aggregates the timed region's spans of one name.
type layerTotals struct {
	calls  int
	busyNs int64
	selfNs int64
	durs   []float64 // per call, ns
}

// totals returns per-name aggregates over spans [lo, hi). A span's self
// time is its duration minus the part of it its children cover; children
// of one span may overlap each other (concurrent shards), so coverage is
// the union of their intervals.
func (t *tracer) totals(lo, hi int) map[string]*layerTotals {
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans[lo:hi] {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans[lo:hi] {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.calls++
		lt.busyNs += dur
		lt.selfNs += dur - covered(kids[int32(i+lo)], s.Start, s.End)
		lt.durs = append(lt.durs, float64(dur))
	}
	return out
}

// rootNs is the total duration of timed-region spans that have no
// parent: the time the driver spent inside some layer.
func (t *tracer) rootNs() int64 {
	var n int64
	for _, s := range t.spans[t.timedFrom:t.timedTo] {
		if s.Parent < 0 {
			n += s.End - s.Start
		}
	}
	return n
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write dumps every span (set-up included) as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		TimedFrom int    `json:"timed_from"`
		TimedTo   int    `json:"timed_to"`
		Spans     []span `json:"spans"`
	}{t.timedFrom, t.timedTo, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// timedScheduler is the driver's probe at the scheduler boundary: it
// forwards to the wrapped policy and times each round from outside. With
// a tracer it also records a span per round and samples the view's
// shape; without one it only keeps the durations of rounds that placed
// something (sim-fb's operation latency in the untraced run).
//
// One instance serves one shard core or simulator, whose rounds are
// serialized, so the fields need no lock.
type timedScheduler struct {
	inner scheduler.Scheduler
	tr    *tracer

	calls, empty, assignments int
	workNs                    []float64 // rounds that placed ≥ 1 task
	allNs                     []float64 // every round (traced run only)
	viewMachines, viewJobs    int64
	// Down machines are counted on every downSampleEvery-th round: the
	// count walks the whole dense machine slice, which on a sparse fleet
	// is the cost being measured.
	machinesSeen, downSeen int64
}

const downSampleEvery = 64

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(v *scheduler.View) []scheduler.Assignment {
	var start int64
	if s.tr != nil {
		start = s.tr.now()
	}
	t0 := time.Now()
	asgs := s.inner.Schedule(v)
	dur := time.Since(t0)
	s.calls++
	s.assignments += len(asgs)
	if len(asgs) == 0 {
		s.empty++
	} else {
		s.workNs = append(s.workNs, float64(dur))
	}
	if s.tr != nil {
		s.tr.child("scheduler", start, start+int64(dur))
		s.allNs = append(s.allNs, float64(dur))
		s.viewMachines += int64(len(v.Machines))
		s.viewJobs += int64(len(v.Jobs))
		if s.calls%downSampleEvery == 1 {
			for _, m := range v.Machines {
				if m.Down {
					s.downSeen++
				}
			}
			s.machinesSeen += int64(len(v.Machines))
		}
	}
	return asgs
}

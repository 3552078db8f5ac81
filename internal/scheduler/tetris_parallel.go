package scheduler

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// This file is the parallel Tetris core (TetrisConfig.Core ==
// CoreParallel): the incremental core's reduce fed by a concurrent
// scoring scatter.
//
// Per round, after reservations are served and before the sequential
// fill loops run, the scatter pre-computes "warm" per-(task, machine)
// entries — the local-fit precheck, the remote-source feasibility
// precheck and the alignment score — against the round-start free
// ledger, fanned out across a bounded worker pool sharded by machine.
// The reduce is scheduleIncremental itself, unchanged in control flow:
// considerTR consults a warm entry instead of recomputing exactly when
// the entry is still valid under the incremental core's own rules —
// a failed precheck is permanent because free vectors only shrink
// within a round, and a passing precheck or score is consumed only
// while the free-vector versions it was computed against are still
// zero. Placements therefore happen in precisely the order (and with
// bit-identical floats) the sequential cores produce; the equivalence
// suite and fuzzer cross-check all three cores.
//
// What the workers touch is deliberately narrow: they read the prepped
// per-task round state (demand, live charges — computed sequentially,
// so View.EstimateDemand is never called concurrently), the free
// ledger and machine capacities, and they write only their own
// machines' slots of each task's warm table — disjoint memory, no
// locks. The one extra requirement over the incremental core is that
// TetrisConfig.Scorer must be safe for concurrent Score/ScoreNorm
// calls; the built-in scorers are pure.
//
// Affinity placements (a machine holding some of the task's input)
// have machine-specific demand and charges; they are rare, so the
// scatter leaves them unset and the reduce computes them as usual.

// warmWindow is how many tasks per stage the scatter warms. Each
// machine's stage scan consumes up to perStage (3) feasible candidates
// from the stage head, so the head window plus one covers the common
// case; warming deeper mostly scores pairs the reduce never consults
// (measured ~13% consult rate at 6 on the large benchmark view vs ~2×
// that at 4). Tasks beyond the window (fetched later as the round
// consumes the prefix) miss the warm table and are scored by the
// reduce — coverage is a performance matter only, never correctness.
const warmWindow = perStage + 1

// warmEntry flag bits.
const (
	warmSet        = 1 << iota // entry was written this round
	warmFitsLocal              // base demand fit the round-start free vector
	warmFitsRemote             // every remote charge fit its source's round-start free
)

// warmEntry is one pre-scored (task, machine) pair, valid for the
// round stamped in taskRound.warmRound.
type warmEntry struct {
	align float64
	flags uint8
}

// warmTask is one prepped task the scatter workers score against every
// active machine.
type warmTask struct {
	task *workload.Task
	tr   *taskRound
	// useRemote mirrors the reduce's remote-branch condition for
	// machines holding none of the task's input (for those, RemoteInputMB
	// — and therefore the charges and their feasibility — is
	// machine-independent, so the source precheck runs once in prep, not
	// per machine).
	useRemote bool
}

// parState is the parallel core's scratch and cumulative counters,
// owned by a Tetris instance (nil unless Core == CoreParallel).
// Counters are atomics so telemetry can read them concurrently with
// scheduling.
type parState struct {
	tasks []warmTask // tasks prepped this round (reused)
	mids  []int      // machine IDs to warm this round (reused)
	next  atomic.Int64

	workers   atomic.Int64
	rounds    atomic.Uint64
	warmTasks atomic.Uint64
	warmPairs atomic.Uint64
	warmHits  atomic.Uint64
	scatterNs atomic.Uint64
	busyNs    atomic.Uint64
}

// ParallelStats is a snapshot of the parallel core's cumulative
// counters, for telemetry and experiment output.
type ParallelStats struct {
	Rounds    uint64 // rounds that ran a scatter
	Workers   int    // resolved pool size of the latest scatter
	WarmTasks uint64 // tasks prepped, cumulative
	WarmPairs uint64 // (task, machine) entries scored, cumulative
	// WarmHits counts the warm entries the reduce actually consulted.
	// Entries are consulted only where considerTR runs, so a stage scan the
	// demand envelope pruned (ScanStats.StagePrunes) consults none: a low
	// hits-to-pairs ratio on a saturated cluster is scatter work the
	// prune made unnecessary.
	WarmHits  uint64
	ScatterNs uint64 // wall-clock spent in scatter phases
	BusyNs    uint64 // summed per-worker busy time (occupancy = BusyNs / (ScatterNs·Workers))
}

// Occupancy returns the worker pool's mean utilization during scatter
// phases, in [0,1]; zero when no scatter has run.
func (s ParallelStats) Occupancy() float64 {
	denom := float64(s.ScatterNs) * float64(s.Workers)
	if denom <= 0 {
		return 0
	}
	occ := float64(s.BusyNs) / denom
	if occ > 1 {
		occ = 1
	}
	return occ
}

// ParallelStats reports the parallel core's counters. ok is false for
// the other cores (the counters would all be zero).
func (t *Tetris) ParallelStats() (s ParallelStats, ok bool) {
	p := t.par
	if p == nil {
		return ParallelStats{}, false
	}
	return ParallelStats{
		Rounds:    p.rounds.Load(),
		Workers:   int(p.workers.Load()),
		WarmTasks: p.warmTasks.Load(),
		WarmPairs: p.warmPairs.Load(),
		WarmHits:  p.warmHits.Load(),
		ScatterNs: p.scatterNs.Load(),
		BusyNs:    p.busyNs.Load(),
	}, true
}

// resolveWorkers maps the config knob to a pool size: 0 means
// GOMAXPROCS; 1 disables the scatter (a one-worker scatter is the
// sequential computation plus coordination overhead, so the core
// degenerates to the incremental one, which keeps the 1-worker
// benchmark an honest overhead measurement).
func (t *Tetris) resolveWorkers() int {
	w := t.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// parScatter runs one round's scatter phase: sequential prep of the
// warm task list, then concurrent scoring of every (warm task, active
// machine) pair. Must run after serveReservations charged the free
// ledger and before the fill loops consume it.
func (t *Tetris) parScatter(v *View, rs *roundState) {
	p := t.par
	ic := &t.inc
	w := t.resolveWorkers()
	if w < 2 {
		return
	}

	// Prep: walk the stages the fill scans will walk and warm the head
	// window of each. Demand estimates, base demand and live remote
	// charges are computed here, sequentially, through exactly the code
	// paths considerTR would use (the taskRound fields make them
	// once-per-round either way).
	nMach := len(v.Machines)
	p.tasks = p.tasks[:0]
	for _, sr := range rs.stages {
		if !sr.eligible && !sr.inTail {
			continue
		}
		n := warmWindow
		if n > sr.pending {
			n = sr.pending
		}
		orig := len(sr.tasks)
		if n > orig {
			sr.tasks = sr.job.Status.AppendPending(sr.stage, n, sr.tasks[:0])
		}
		for i := 0; i < n && i < len(sr.tasks); i++ {
			task := sr.tasks[i]
			tr := ic.taskRoundFor(sr.job, task)
			if tr.takenRound == ic.round {
				continue // placed by a reservation already
			}
			if !tr.inputsScanned {
				tr.inputsScanned = true
				for _, b := range task.Inputs {
					if b.Machine >= 0 {
						tr.hasPlaced = true
						break
					}
				}
			}
			if !tr.baseSet {
				d := EffectiveDemand(tr.peak, task, -1)
				if t.cfg.CPUMemOnly {
					d = projectCPUMem(d)
				}
				tr.base = d
				tr.baseSet = true
			}
			useRemote := false
			if tr.hasPlaced && !t.cfg.CPUMemOnly && !t.cfg.DisableRemoteCharges && task.RemoteInputMB(-1) > 0 {
				if !tr.liveSet {
					if !tr.baseChargesSet {
						tr.baseCharges = RemoteCharges(tr.peak, task, -1)
						tr.baseChargesSet = true
					}
					tr.live = LiveCharges(v, tr.baseCharges)
					tr.liveSet = true
				}
				useRemote = true
				// Source feasibility of the base charges is machine-
				// independent: check it here, once. When it fails, skip
				// warming entirely — the reduce computes the same failure
				// on the task's first machine and the monotone
				// baseRemoteDead prune skips all later ones, so a warm
				// sweep across every machine would be pure waste.
				for _, rc := range tr.live {
					if !rc.Charge.FitsIn(ic.free[rc.Machine]) {
						useRemote = false
						break
					}
				}
				if !useRemote {
					continue
				}
			}
			if cap(tr.warm) < nMach {
				tr.warm = make([]warmEntry, nMach)
			}
			tr.warm = tr.warm[:nMach]
			tr.warmRound = ic.round
			p.tasks = append(p.tasks, warmTask{task: task, tr: tr, useRemote: useRemote})
		}
		if orig < len(sr.tasks) {
			// Shrink the fetched prefix back: later fetch growth — and
			// starvation detection, which keys off the fetched length —
			// must proceed exactly as without the scatter. A re-fetch
			// regenerates the identical prefix, so no content is lost.
			sr.tasks = sr.tasks[:orig]
		}
	}

	p.mids = p.mids[:0]
	for _, m := range v.Machines {
		if m.Down || t.res.Held(m.ID) {
			continue // the fill loops never consult these machines
		}
		if ic.free[m.ID].IsZero() {
			continue // collectIncr bails before looking at warm entries
		}
		p.mids = append(p.mids, m.ID)
	}
	if len(p.tasks) == 0 || len(p.mids) == 0 {
		return
	}
	if w > len(p.mids) {
		w = len(p.mids)
	}

	start := time.Now()
	p.next.Store(0)
	if w > 1 {
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for i := 0; i < w-1; i++ {
			go func() {
				defer wg.Done()
				p.busyNs.Add(uint64(t.scatterWorker(v)))
			}()
		}
		p.busyNs.Add(uint64(t.scatterWorker(v)))
		wg.Wait()
	} else {
		p.busyNs.Add(uint64(t.scatterWorker(v)))
	}
	p.scatterNs.Add(uint64(time.Since(start)))
	p.rounds.Add(1)
	p.workers.Store(int64(w))
	p.warmTasks.Add(uint64(len(p.tasks)))
	p.warmPairs.Add(uint64(len(p.tasks) * len(p.mids)))
}

// scatterWorker drains the shared machine queue, warming one machine's
// column of every prepped task. Returns its busy time.
func (t *Tetris) scatterWorker(v *View) time.Duration {
	p := t.par
	start := time.Now()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.mids) {
			break
		}
		t.warmMachine(v, p.mids[i])
	}
	return time.Since(start)
}

// warmMachine scores every prepped task against one machine's
// round-start free vector, writing that machine's warm slots. The
// arithmetic mirrors considerTR step for step — same functions, same
// argument order — so a consulted entry is bit-identical to what the
// reduce would have computed.
func (t *Tetris) warmMachine(v *View, mid int) {
	ic := &t.inc
	free0 := ic.free[mid]
	capv := v.Machines[mid].Capacity
	var normA resources.Vector
	if ic.ns != nil {
		normA = free0.Normalize(capv)
	}
	for _, wt := range t.par.tasks {
		tr := wt.tr
		e := &tr.warm[mid]
		if tr.hasPlaced && wt.task.HasLocalAffinity(mid) {
			// Machine-specific demand and charges: leave to the reduce.
			e.flags = 0
			continue
		}
		var flags uint8 = warmSet
		if !tr.base.FitsIn(free0) {
			e.flags = flags // warmFitsLocal unset: permanent this round
			continue
		}
		flags |= warmFitsLocal
		// Remote-source feasibility was prechecked in prep (it does not
		// depend on this machine); tasks that failed it were not warmed.
		flags |= warmFitsRemote
		remote := wt.useRemote && tr.live != nil
		var align float64
		if ic.ns != nil {
			align = ic.ns.ScoreNorm(tr.base.Normalize(capv), normA)
		} else {
			align = t.cfg.Scorer.Score(tr.base, free0, capv)
		}
		if remote {
			align *= 1 - t.cfg.RemotePenalty
		}
		e.align = align
		e.flags = flags
	}
}

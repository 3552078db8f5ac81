package sim

import (
	"fmt"
	"math"

	"github.com/tetris-sched/tetris/internal/resources"
)

// checkRates verifies the incremental rate state right after
// recomputeRates (enabled by Config.CheckInvariants): nothing is left
// marked; every node lists exactly the live components of s.running that
// demand it, in summation order; every demand sum, scale factor and live
// component rate equals, bit for bit, what the full computation over all
// of s.running yields — the three passes the incremental path replaced,
// kept here as its oracle and reachable from nowhere else; and every
// task's stored finish estimate equals finishEstimate at those rates.
func (s *Sim) checkRates() error {
	n := len(s.machines)
	cm := s.cfg.Cluster.Machines
	numRacks := s.cfg.Cluster.NumRacks()
	uplinks := numRacks > 1 && s.cfg.Cluster.CrossRackMbps > 0
	wantNodes := n
	if uplinks {
		wantNodes += 2 * numRacks
	}
	if len(s.nodes) != wantNodes {
		return fmt.Errorf("sim: %d rate nodes, want %d for %d machines in %d racks (uplinks modelled: %v)", len(s.nodes), wantNodes, n, numRacks, uplinks)
	}
	if len(s.dirty) != 0 {
		return fmt.Errorf("sim: %d rate nodes still marked after recomputeRates at t=%.2f", len(s.dirty), s.clock)
	}

	// Contributor lists, rebuilt from s.running in the order the full
	// pass visits components.
	want := make([][]user, len(s.nodes))
	for _, rt := range s.running {
		for i := range rt.comps {
			c := &rt.comps[i]
			if c.remaining <= 0 {
				continue
			}
			ids, k := s.compNodes(rt, c)
			for _, id := range ids[:k] {
				want[id] = append(want[id], user{rt, i})
			}
		}
	}
	for id := range s.nodes {
		nd := &s.nodes[id]
		if nd.dirty {
			return fmt.Errorf("sim: rate node %d flagged dirty but not queued at t=%.2f", id, s.clock)
		}
		if len(nd.users) != len(want[id]) {
			return fmt.Errorf("sim: rate node %d lists %d users, running tasks give %d at t=%.2f", id, len(nd.users), len(want[id]), s.clock)
		}
		for i, u := range nd.users {
			if u != want[id][i] {
				return fmt.Errorf("sim: rate node %d user %d is task %v comp %d, want task %v comp %d at t=%.2f",
					id, i, u.rt.task.ID, u.ci, want[id][i].rt.task.ID, want[id][i].ci, s.clock)
			}
		}
	}

	// Pass 1: demand sums (background activity demands too).
	full := make([]rateNode, len(s.nodes))
	for m := range s.machines {
		bg := s.background[m]
		full[m].cpuD = bg.Get(resources.CPU)
		full[m].diskRD = bg.Get(resources.DiskRead)
		full[m].diskWD = bg.Get(resources.DiskWrite)
		full[m].netInD = bg.Get(resources.NetIn)
		full[m].netOutD = bg.Get(resources.NetOut)
	}
	for _, rt := range s.running {
		m := rt.machine
		for i := range rt.comps {
			c := &rt.comps[i]
			if c.remaining <= 0 {
				continue
			}
			switch c.kind {
			case compCPU:
				full[m].cpuD += c.demand
			case compLocalRead:
				full[m].diskRD += c.demand
			case compWrite:
				full[m].diskWD += c.demand
			case compFlow:
				full[c.src].diskRD += c.demand
				full[c.src].netOutD += c.demand * 8
				full[m].netInD += c.demand * 8
				if sr, dr := cm[c.src].Rack, cm[m].Rack; uplinks && sr != dr {
					full[n+sr].netOutD += c.demand * 8
					full[n+numRacks+dr].netInD += c.demand * 8
				}
			}
		}
	}

	// Pass 2: per-resource scale factors.
	for m, ms := range s.machines {
		f := &full[m]
		f.cpuS = cpuScale(ms.Capacity.Get(resources.CPU), f.cpuD)
		f.diskRS = s.ioScale(ms.Capacity.Get(resources.DiskRead), f.diskRD)
		f.diskWS = s.ioScale(ms.Capacity.Get(resources.DiskWrite), f.diskWD)
		f.netInS = s.ioScale(ms.Capacity.Get(resources.NetIn), f.netInD)
		f.netOutS = s.ioScale(ms.Capacity.Get(resources.NetOut), f.netOutD)
	}
	if uplinks {
		for r := 0; r < numRacks; r++ {
			out, in := &full[n+r], &full[n+numRacks+r]
			out.netOutS = s.ioScale(s.cfg.Cluster.CrossRackMbps, out.netOutD)
			in.netInS = s.ioScale(s.cfg.Cluster.CrossRackMbps, in.netInD)
		}
	}
	for id := range full {
		got, f := &s.nodes[id], &full[id]
		for _, p := range [...]struct {
			name      string
			got, want float64
		}{
			{"cpu demand", got.cpuD, f.cpuD}, {"disk-read demand", got.diskRD, f.diskRD},
			{"disk-write demand", got.diskWD, f.diskWD}, {"net-in demand", got.netInD, f.netInD},
			{"net-out demand", got.netOutD, f.netOutD},
			{"cpu scale", got.cpuS, f.cpuS}, {"disk-read scale", got.diskRS, f.diskRS},
			{"disk-write scale", got.diskWS, f.diskWS}, {"net-in scale", got.netInS, f.netInS},
			{"net-out scale", got.netOutS, f.netOutS},
		} {
			if math.Float64bits(p.got) != math.Float64bits(p.want) {
				return fmt.Errorf("sim: rate node %d %s = %v, full pass gives %v at t=%.2f", id, p.name, p.got, p.want, s.clock)
			}
		}
	}

	// Pass 3: granted rates.
	for _, rt := range s.running {
		m := rt.machine
		degrade := s.slow[m] * rt.slowdown
		for i := range rt.comps {
			c := &rt.comps[i]
			if c.remaining <= 0 {
				continue
			}
			var rate float64
			switch c.kind {
			case compCPU:
				rate = c.demand * full[m].cpuS
			case compLocalRead:
				rate = c.demand * full[m].diskRS
			case compWrite:
				rate = c.demand * full[m].diskWS
			case compFlow:
				f := min3(full[c.src].diskRS, full[c.src].netOutS, full[m].netInS)
				if sr, dr := cm[c.src].Rack, cm[m].Rack; uplinks && sr != dr {
					if out := full[n+sr].netOutS; out < f {
						f = out
					}
					if in := full[n+numRacks+dr].netInS; in < f {
						f = in
					}
				}
				rate = c.demand * f
			}
			if degrade != 1 {
				rate *= degrade
			}
			if math.Float64bits(c.rate) != math.Float64bits(rate) {
				return fmt.Errorf("sim: task %v comp %d (kind %d) on machine %d runs at %v, full pass gives %v at t=%.2f",
					rt.task.ID, i, c.kind, m, c.rate, rate, s.clock)
			}
		}
		if f := rt.finishEstimate(); math.Float64bits(rt.finish) != math.Float64bits(f) {
			return fmt.Errorf("sim: task %v on machine %d stores finish estimate %v, its rates give %v at t=%.2f",
				rt.task.ID, m, rt.finish, f, s.clock)
		}
	}
	return nil
}

// checkReported verifies the tracker ledgers right after updateReported
// (enabled by Config.CheckInvariants): every machine's Reported and
// Allocated equals, bit for bit, what referenceReported derives.
func (s *Sim) checkReported() error {
	reported, allocated := s.referenceReported()
	for m, ms := range s.machines {
		if !ms.Reported.SameBits(reported[m]) || !ms.Allocated.SameBits(allocated[m]) {
			type full [resources.NumKinds]float64 // printed in full, not rounded by Vector.String
			return fmt.Errorf("sim: machine %d reports %v and allocates %v, the vector formula gives %v and %v at t=%.2f",
				m, full(ms.Reported), full(ms.Allocated), full(reported[m]), full(allocated[m]), s.clock)
		}
	}
	return nil
}

// referenceReported is updateReported's tracker formula in whole-vector
// operations — observed usage masked by the charge, topped up by the
// decaying allowance, every charge added in full — computed into fresh
// ledgers: the oracle updateReported's per-dimension form must match.
func (s *Sim) referenceReported() (reported, allocated []resources.Vector) {
	reported = append([]resources.Vector(nil), s.background...)
	allocated = make([]resources.Vector, len(s.machines))
	for _, rt := range s.running {
		var use resources.Vector
		use[resources.Memory] = rt.task.Peak.Get(resources.Memory)
		var srcs []srcRate
		for i := range rt.comps {
			c := &rt.comps[i]
			if c.remaining <= 0 {
				continue
			}
			switch c.kind {
			case compCPU:
				use[resources.CPU] += c.rate
			case compLocalRead:
				use[resources.DiskRead] += c.rate
			case compWrite:
				use[resources.DiskWrite] += c.rate
			case compFlow:
				use[resources.NetIn] += c.rate * 8
				rep := &reported[c.src]
				rep[resources.DiskRead] += c.rate
				rep[resources.NetOut] += c.rate * 8
				srcs = append(srcs, srcRate{int(c.src), c.rate})
			}
		}
		reported[rt.machine] = reported[rt.machine].Add(use)

		decay := 1 - (s.clock-rt.started)/rampUpSec
		if decay < 0 {
			decay = 0
		}
		charge := use.MaskBy(rt.local).Max(rt.local.Scale(decay))
		if mem := rt.local.Get(resources.Memory); mem > charge.Get(resources.Memory) {
			charge[resources.Memory] = mem
		}
		allocated[rt.machine] = allocated[rt.machine].Add(charge)
		for _, rc := range rt.remote {
			var actual resources.Vector
			for _, sr := range srcs {
				if sr.machine == rc.Machine {
					actual[resources.DiskRead] = sr.rate
					actual[resources.NetOut] = sr.rate * 8
					break
				}
			}
			eff := actual.MaskBy(rc.Charge).Max(rc.Charge.Scale(decay))
			allocated[rc.Machine] = allocated[rc.Machine].Add(eff)
		}
	}
	return reported, allocated
}

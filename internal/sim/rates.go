package sim

import (
	"github.com/tetris-sched/tetris/internal/resources"
)

// Fluid rates are kept incrementally. A fluid allocation changes only at
// the resource where something arrived or departed, so every resource
// node — a machine, and each rack uplink direction when the cluster
// models them — keeps the list of (running task, component) pairs that
// demand it, and an event marks the nodes it touches. recomputeRates
// re-sums only marked nodes, recomputes their scale factors and re-rates
// only the components listed on them.
//
// The result is bit-identical to summing every machine's demand from all
// of s.running on every event (checkRates, the verifier behind
// Config.CheckInvariants). One rule makes it so: that full pass adds a
// node's demands in (position in s.running, component index) order, so a
// marked node's list is sorted by that key before it is summed; and
// because unlink swap-moves the last running task into the freed slot,
// the moved task's nodes are marked as well — its key changed.

// user is one (running task, component) pair demanding a resource node.
type user struct {
	rt *runningTask
	ci int // index into rt.comps
}

// live reports whether the pair still demands anything: its task runs
// and its component has work left.
func (u user) live() bool { return !u.rt.gone && u.rt.comps[u.ci].remaining > 0 }

// rateNode is one shared resource: machine i is node i; with rack
// uplinks, rack r's outbound link is node machines+r and its inbound
// link node machines+racks+r.
type rateNode struct {
	// users lists the live components demanding the node. A component
	// that finished, or whose task was unlinked, stays listed until the
	// node is next re-summed; both events mark the node.
	users []user
	dirty bool
	// Demand sums and the scale factors derived from them. A machine uses
	// all five; an uplink only the net one of its direction.
	cpuD, diskRD, diskWD, netInD, netOutD float64
	cpuS, diskRS, diskWS, netInS, netOutS float64
}

// mark queues a node for the next recomputeRates.
func (s *Sim) mark(id int) {
	if nd := &s.nodes[id]; !nd.dirty {
		nd.dirty = true
		s.dirty = append(s.dirty, id)
	}
}

// compNodes lists the nodes component c of rt demands: the task's
// machine, and for a flow its source machine plus, across racks, the
// source rack's outbound and the destination rack's inbound uplink.
func (s *Sim) compNodes(rt *runningTask, c *component) (ids [4]int, n int) {
	ids[0], n = rt.machine, 1
	if c.kind != compFlow {
		return ids, n
	}
	ids[1], n = int(c.src), 2
	if s.racks > 0 {
		ms := s.cfg.Cluster.Machines
		if sr, dr := ms[c.src].Rack, ms[rt.machine].Rack; sr != dr {
			ids[2] = len(s.machines) + sr
			ids[3] = len(s.machines) + s.racks + dr
			n = 4
		}
	}
	return ids, n
}

// markComp marks the nodes of one component.
func (s *Sim) markComp(rt *runningTask, c *component) {
	ids, n := s.compNodes(rt, c)
	for _, id := range ids[:n] {
		s.mark(id)
	}
}

// markTask marks the nodes of every live component of rt.
func (s *Sim) markTask(rt *runningTask) {
	for i := range rt.comps {
		if c := &rt.comps[i]; c.remaining > 0 {
			s.markComp(rt, c)
		}
	}
}

// enlist registers a newly started task's components on their nodes.
func (s *Sim) enlist(rt *runningTask) {
	for i := range rt.comps {
		c := &rt.comps[i]
		if c.remaining <= 0 {
			continue
		}
		ids, n := s.compNodes(rt, c)
		for _, id := range ids[:n] {
			s.nodes[id].users = append(s.nodes[id].users, user{rt, i})
			s.mark(id)
		}
	}
}

// recomputeRates performs the fluid-sharing step for the nodes marked
// since the last call: every machine resource is proportionally shared
// among the components demanding it, and each remote flow runs at the
// minimum of its granted rates along the path (source disk, source
// NIC-out, rack uplinks, destination NIC-in). Every task with a re-rated
// component is re-estimated, whether or not the rate moved; any other
// task's estimate is the one advance stored, at rates that still hold.
func (s *Sim) recomputeRates() {
	s.rateNodesRecomputed += uint64(len(s.dirty))
	s.rateNodesClean += uint64(len(s.nodes) - len(s.dirty))
	// Every marked node's scale factors before any rate: a flow's rate
	// reads up to four nodes.
	for _, id := range s.dirty {
		s.resum(id)
	}
	for _, id := range s.dirty {
		nd := &s.nodes[id]
		for _, u := range nd.users {
			c := &u.rt.comps[u.ci]
			c.rate = s.grantedRate(u.rt, c)
			if !u.rt.rerated {
				u.rt.rerated = true
				s.rerated = append(s.rerated, u.rt)
			}
		}
		nd.dirty = false
	}
	s.dirty = s.dirty[:0]
	for _, rt := range s.rerated {
		rt.rerated = false
		rt.finish = rt.finishEstimate()
	}
	s.rerated = s.rerated[:0]
	// Every node that listed an unlinked task was marked and has just
	// dropped it, so its record may serve a new task.
	s.spare = append(s.spare, s.unlinked...)
	clear(s.unlinked)
	s.unlinked = s.unlinked[:0]
}

// resum drops a marked node's departed users, restores the list's
// (position in s.running, component index) order, and recomputes the
// node's demand sums and scale factors.
func (s *Sim) resum(id int) {
	nd := &s.nodes[id]
	live := nd.users[:0]
	for _, u := range nd.users {
		if u.live() {
			live = append(live, u)
		}
	}
	clear(nd.users[len(live):])
	nd.users = live
	// Insertion sort: a swap-move displaces one task, a start appends.
	for i := 1; i < len(live); i++ {
		u := live[i]
		j := i
		for ; j > 0 && (live[j-1].rt.idx > u.rt.idx || live[j-1].rt.idx == u.rt.idx && live[j-1].ci > u.ci); j-- {
			live[j] = live[j-1]
		}
		live[j] = u
	}

	if id >= len(s.machines) {
		// A rack uplink: one direction, every user a cross-rack flow.
		var d float64
		for _, u := range live {
			d += u.rt.comps[u.ci].demand * 8
		}
		sc := s.ioScale(s.cfg.Cluster.CrossRackMbps, d)
		if id < len(s.machines)+s.racks {
			nd.netOutD, nd.netOutS = d, sc
		} else {
			nd.netInD, nd.netInS = d, sc
		}
		return
	}

	// Background activity demands too.
	bg := s.background[id]
	cpuD := bg.Get(resources.CPU)
	diskRD := bg.Get(resources.DiskRead)
	diskWD := bg.Get(resources.DiskWrite)
	netInD := bg.Get(resources.NetIn) // Mbps
	netOutD := bg.Get(resources.NetOut)
	for _, u := range live {
		c := &u.rt.comps[u.ci]
		if u.rt.machine != id {
			// A flow served from this machine to a task elsewhere.
			diskRD += c.demand      // MB/s read at the source disk
			netOutD += c.demand * 8 // Mbps out of the source
			continue
		}
		switch c.kind {
		case compCPU:
			cpuD += c.demand
		case compLocalRead:
			diskRD += c.demand
		case compWrite:
			diskWD += c.demand
		case compFlow:
			netInD += c.demand * 8 // Mbps into the destination
		}
	}
	nd.cpuD, nd.diskRD, nd.diskWD, nd.netInD, nd.netOutD = cpuD, diskRD, diskWD, netInD, netOutD

	// CPU time-shares cleanly; disk and network lose effective capacity
	// under over-subscription (ioScale).
	capacity := s.machines[id].Capacity
	nd.cpuS = cpuScale(capacity.Get(resources.CPU), cpuD)
	nd.diskRS = s.ioScale(capacity.Get(resources.DiskRead), diskRD)
	nd.diskWS = s.ioScale(capacity.Get(resources.DiskWrite), diskWD)
	nd.netInS = s.ioScale(capacity.Get(resources.NetIn), netInD)
	nd.netOutS = s.ioScale(capacity.Get(resources.NetOut), netOutD)
}

// cpuScale is the fraction of its demand each CPU user is granted.
func cpuScale(capacity, demand float64) float64 {
	if demand <= capacity || demand == 0 {
		return 1
	}
	return capacity / demand
}

// Over-subscribing disk or network costs throughput super-linearly (§2.1:
// incast, disk seek overheads): at demand k > 1 times capacity, effective
// capacity is capacity/(1 + interferenceAlpha·(k−1)), but never below
// interferenceFloor × capacity — interference degrades, it doesn't halt.
const (
	interferenceAlpha = 0.5
	interferenceFloor = 0.25
)

// ioScale is cpuScale for disk and network, which lose effective
// capacity under over-subscription (see interferenceAlpha).
func (s *Sim) ioScale(capacity, demand float64) float64 {
	if demand <= capacity || demand == 0 {
		return 1
	}
	k := demand / capacity
	eff := capacity / (1 + interferenceAlpha*(k-1))
	if floor := interferenceFloor * capacity; eff < floor {
		eff = floor
	}
	return eff / demand
}

// grantedRate is the rate live component c of rt runs at under the
// current scale factors. Fault injection degrades it: a machine slowdown
// (failing disk, noisy neighbour) scales every component on the machine,
// and a straggler attempt runs at its injected factor.
func (s *Sim) grantedRate(rt *runningTask, c *component) float64 {
	m := rt.machine
	nd := &s.nodes[m]
	var rate float64
	switch c.kind {
	case compCPU:
		rate = c.demand * nd.cpuS
	case compLocalRead:
		rate = c.demand * nd.diskRS
	case compWrite:
		rate = c.demand * nd.diskWS
	case compFlow:
		src := &s.nodes[c.src]
		f := min3(src.diskRS, src.netOutS, nd.netInS)
		if s.racks > 0 {
			ms := s.cfg.Cluster.Machines
			if sr, dr := ms[c.src].Rack, ms[m].Rack; sr != dr {
				if out := s.nodes[len(s.machines)+sr].netOutS; out < f {
					f = out
				}
				if in := s.nodes[len(s.machines)+s.racks+dr].netInS; in < f {
					f = in
				}
			}
		}
		rate = c.demand * f
	}
	if degrade := s.slow[m] * rt.slowdown; degrade != 1 {
		rate *= degrade
	}
	return rate
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// rampUpSec is the resource tracker's allowance window (§4.1): a newly
// placed task is charged its full allocated demand, decaying linearly to
// its observed usage over this many seconds. After the window, unused
// allocation is reclaimed and offered to new tasks — the statistical
// multiplexing the paper's tracker provides.
const rampUpSec = 10

// srcRate is the rate (MB/s) at which one task reads from one source
// machine.
type srcRate struct {
	machine int
	rate    float64
}

// updateReported refreshes every machine's tracker-style state from the
// current fluid rates plus background activity:
//
//   - Reported is the observed usage (rates; memory at peak occupancy)
//     including background activity;
//   - Allocated is the *effective* charge the scheduler's ledger holds
//     per task: the component-wise max of observed usage (masked to the
//     dimensions the scheduler charged, so each policy keeps its own
//     resource model) and the original charge scaled by the §4.1 ramp-up
//     decay. This reclamation of unused allocation after the ramp-up
//     window is the resource tracker's statistical-multiplexing role.
//     Memory never decays: it is occupancy, and every policy keeps its
//     memory charge (slot rounding included) for the task's whole life.
//
// It stays one pass over the running tasks per round: the decay moves
// with the clock, so no machine's ledger survives from round to round.
// It forms every charge in place, with the vector formula's comparisons
// and order of additions (referenceReported, checkReported's oracle).
// Past the ramp-up a remote charge adds only the dimensions where the
// charge and the flow are non-zero: every other term is ±0, and a ledger
// starts at +0 and gains only non-negative terms, so it never holds −0
// and adding ±0 leaves it as it is.
func (s *Sim) updateReported() {
	for m := range s.machines {
		s.machines[m].Reported = s.background[m]
		s.machines[m].Allocated = resources.Vector{}
	}
	for _, rt := range s.running {
		ms := s.machines[rt.machine]
		var use resources.Vector
		use[resources.Memory] = rt.task.Peak.Get(resources.Memory)
		srcs := s.srcRates[:0]
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
				rep := &s.machines[c.src].Reported
				rep[resources.DiskRead] += c.rate
				rep[resources.NetOut] += c.rate * 8
				// start makes one flow per source, so this is the
				// source's whole usage by the task.
				srcs = append(srcs, srcRate{int(c.src), c.rate})
			}
		}
		s.srcRates = srcs
		ms.Reported = ms.Reported.Add(use)

		// Effective ledger charge: observed usage projected onto the
		// dimensions this scheduler charged, topped up by the decaying
		// allowance of the original allocation. Memory stays reserved at
		// the charged amount for the task's whole life (slot rounding
		// included, for the slot scheduler): raising its usage to the
		// charge first is the same maximum, as the allowance never
		// exceeds the charge.
		decay := 1 - (s.clock-rt.started)/rampUpSec
		if decay < 0 {
			decay = 0
		}
		if mem := rt.local[resources.Memory]; mem > use[resources.Memory] {
			use[resources.Memory] = mem
		}
		addCharge(&ms.Allocated, &rt.local, &use, decay)
		for _, rc := range rt.remote {
			var actual resources.Vector
			for _, sr := range srcs {
				if sr.machine == rc.Machine {
					actual[resources.DiskRead] = sr.rate
					actual[resources.NetOut] = sr.rate * 8
					break
				}
			}
			alloc := &s.machines[rc.Machine].Allocated
			if decay > 0 {
				addCharge(alloc, &rc.Charge, &actual, decay)
				continue
			}
			for _, k := range [...]resources.Kind{resources.DiskRead, resources.NetOut} {
				if rc.Charge[k] != 0 && actual[k] != 0 {
					alloc[k] += actual[k]
				}
			}
		}
	}
}

// addCharge adds to ledger, one dimension at a time, the effective charge
// use.MaskBy(charge).Max(charge.Scale(decay)).
func addCharge(ledger, charge, use *resources.Vector, decay float64) {
	for k, c := range charge {
		v := 0.0
		if c != 0 {
			v = use[k]
		}
		if o := c * decay; o > v {
			v = o
		}
		ledger[k] += v
	}
}

// machineDemand returns the Σ of scheduler-relevant peak demands exerted
// on machine m right now (tasks placed there plus flows served from
// there, plus background). Unlike usage it can exceed capacity — that is
// the over-allocation the paper's Figure 5/Table 6 report. It reads the
// machine's user list, which between two recomputeRates calls may still
// hold finished components and unlinked tasks.
func (s *Sim) machineDemand(m int) resources.Vector {
	d := s.background[m]
	for _, rt := range s.byMach[m] {
		d[resources.Memory] += rt.task.Peak.Get(resources.Memory)
	}
	for _, u := range s.nodes[m].users {
		if !u.live() {
			continue
		}
		c := &u.rt.comps[u.ci]
		if u.rt.machine != m {
			d[resources.DiskRead] += c.demand
			d[resources.NetOut] += c.demand * 8
			continue
		}
		switch c.kind {
		case compCPU:
			d[resources.CPU] += c.demand
		case compLocalRead:
			d[resources.DiskRead] += c.demand
		case compWrite:
			d[resources.DiskWrite] += c.demand
		case compFlow:
			d[resources.NetIn] += c.demand * 8
		}
	}
	return d
}

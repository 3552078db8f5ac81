// Package reserve provides a shared reservation table: a per-machine
// record of capacity held back from normal packing on behalf of a
// holder job. Two holders use it today — the Tetris starvation guard
// reserves whole machines for starved stage-head tasks (DESIGN.md §6),
// and the gang coordinator hoards partial placements while it waits
// for a full gang to become co-placeable (DESIGN.md §14). Each owner
// drops its own kind of reservation with Sweep at the start of its
// round.
//
// The table is deliberately not concurrency-safe; it is owned by a
// single scheduler (or coordinator) and mutated only inside its
// scheduling round, like the rest of the scheduler state.
package reserve

import (
	"sort"

	"github.com/tetris-sched/tetris/internal/workload"
)

// Kind says on whose behalf a machine is reserved.
type Kind int

const (
	// Starved marks a whole-machine reservation made by the starvation
	// guard for a single task that has waited past StarvationSec.
	Starved Kind = iota
	// Gang marks a reservation made by the gang coordinator
	// to hoard a partial placement until the rest of the gang fits.
	Gang
)

func (k Kind) String() string {
	switch k {
	case Starved:
		return "starved"
	case Gang:
		return "gang"
	default:
		return "unknown"
	}
}

// Reservation is one machine's hold.
type Reservation struct {
	Kind   Kind
	Holder int // job ID the reservation serves
	// Task is the task the reservation was made for (starved
	// singletons). Nil for gang hoards.
	Task *workload.Task
}

// Table maps machine ID → reservation. At most one reservation per
// machine; a new Put replaces any previous holder.
type Table struct {
	m map[int]Reservation
}

// New returns an empty table.
func New() *Table { return &Table{m: make(map[int]Reservation)} }

// Held reports whether machine mid carries a reservation.
func (t *Table) Held(mid int) bool {
	_, ok := t.m[mid]
	return ok
}

// Get returns the reservation on machine mid, if any.
func (t *Table) Get(mid int) (Reservation, bool) {
	r, ok := t.m[mid]
	return r, ok
}

// Put installs (or replaces) the reservation on machine mid.
func (t *Table) Put(mid int, r Reservation) { t.m[mid] = r }

// Release drops the reservation on machine mid, returning it.
func (t *Table) Release(mid int) (Reservation, bool) {
	r, ok := t.m[mid]
	if ok {
		delete(t.m, mid)
	}
	return r, ok
}

// Machines returns the reserved machine IDs in ascending order — the
// deterministic iteration order every scheduler core must share.
func (t *Table) Machines() []int {
	ids := make([]int, 0, len(t.m))
	for mid := range t.m {
		ids = append(ids, mid)
	}
	sort.Ints(ids)
	return ids
}

// Each visits reservations in ascending machine-ID order. The visitor
// must not mutate the table.
func (t *Table) Each(fn func(mid int, r Reservation)) {
	for _, mid := range t.Machines() {
		fn(mid, t.m[mid])
	}
}

// Sweep removes every reservation that drop reports should go. It
// visits the table in no particular order, so drop must not depend on
// it.
func (t *Table) Sweep(drop func(r Reservation) bool) {
	for mid, r := range t.m {
		if drop(r) {
			delete(t.m, mid)
		}
	}
}

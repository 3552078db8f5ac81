// Package resources implements the fixed-dimension resource algebra used
// throughout Tetris: demand and capacity vectors over CPU, memory, disk
// read/write bandwidth and network in/out bandwidth, together with the
// normalization and alignment operations of the packing heuristic (§3.2 of
// the paper).
package resources

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies one resource dimension.
type Kind int

// The six resource dimensions Tetris schedules (paper Tables 4 and 5).
// CPU and memory are purely local; disk and network bandwidth may be
// consumed at several machines when a task reads remote input.
const (
	CPU Kind = iota
	Memory
	DiskRead
	DiskWrite
	NetIn
	NetOut
	NumKinds
)

var kindNames = [NumKinds]string{"cpu", "mem", "diskR", "diskW", "netIn", "netOut"}

// String returns the short lower-case name of the resource kind.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists all resource dimensions in canonical order.
func Kinds() []Kind {
	return []Kind{CPU, Memory, DiskRead, DiskWrite, NetIn, NetOut}
}

// Vector is a point in the d-dimensional resource space. Units are:
// cores, GB, MB/s (disk), Mb/s (network). The zero value is the empty
// allocation and is ready to use.
type Vector [NumKinds]float64

// New builds a vector from the six dimension values in canonical order.
func New(cpu, mem, diskR, diskW, netIn, netOut float64) Vector {
	return Vector{cpu, mem, diskR, diskW, netIn, netOut}
}

// Get returns the value of dimension k.
func (v Vector) Get(k Kind) float64 { return v[k] }

// With returns a copy of v with dimension k set to val.
func (v Vector) With(k Kind, val float64) Vector {
	v[k] = val
	return v
}

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v − o.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v multiplied component-wise by s.
func (v Vector) Scale(s float64) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Mul returns the component-wise (Hadamard) product of v and o.
func (v Vector) Mul(o Vector) Vector {
	for i := range v {
		v[i] *= o[i]
	}
	return v
}

// Div returns component-wise v/o. Components where o is zero yield zero;
// the caller is expected to use this for normalization against capacities,
// where a zero capacity means the dimension is absent from the machine.
func (v Vector) Div(o Vector) Vector {
	for i := range v {
		if o[i] == 0 {
			v[i] = 0
		} else {
			v[i] /= o[i]
		}
	}
	return v
}

// Max returns the component-wise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// Min returns the component-wise minimum of v and o.
func (v Vector) Min(o Vector) Vector {
	for i := range v {
		if o[i] < v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// MaskBy zeroes every component of v whose counterpart in mask is zero —
// projecting v onto the dimensions mask cares about.
func (v Vector) MaskBy(mask Vector) Vector {
	for i := range v {
		if mask[i] == 0 {
			v[i] = 0
		}
	}
	return v
}

// Clamp returns v with every component clamped into [0, hi_i].
func (v Vector) Clamp(hi Vector) Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
		if v[i] > hi[i] {
			v[i] = hi[i]
		}
	}
	return v
}

// FitsIn reports whether every component of v is ≤ the corresponding
// component of capacity (within a small epsilon to absorb float drift).
// This is the feasibility check the packing heuristic applies before a
// task is considered for a machine: peak demands must be satisfiable, so
// over-allocation is impossible (§3.2).
func (v Vector) FitsIn(capacity Vector) bool {
	const eps = 1e-9
	for i := range v {
		if v[i] > capacity[i]+eps {
			return false
		}
	}
	return true
}

// Dot returns the inner product ⟨v, o⟩.
func (v Vector) Dot(o Vector) float64 {
	var s float64
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

// Sum returns the sum of all components.
func (v Vector) Sum() float64 {
	var s float64
	for i := range v {
		s += v[i]
	}
	return s
}

// MaxComponent returns the largest component value and its dimension.
func (v Vector) MaxComponent() (Kind, float64) {
	best, bestK := math.Inf(-1), Kind(0)
	for i := range v {
		if v[i] > best {
			best, bestK = v[i], Kind(i)
		}
	}
	return bestK, best
}

// L2Norm returns the Euclidean norm of v.
func (v Vector) L2Norm() float64 { return math.Sqrt(v.Dot(v)) }

// SameBits reports whether v and o are bit-for-bit equal. Stricter than
// ==, which equates +0 with −0 (and never equates a NaN with itself): the
// test for code that must reproduce a computation to the bit — cache keys,
// replay and drift checks.
func (v Vector) SameBits(o Vector) bool {
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(o[i]) {
			return false
		}
	}
	return true
}

// IsZero reports whether all components are exactly zero.
func (v Vector) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether no component is below −epsilon.
func (v Vector) NonNegative() bool {
	const eps = 1e-9
	for i := range v {
		if v[i] < -eps {
			return false
		}
	}
	return true
}

// Normalize returns v divided component-wise by capacity: each component
// becomes a fraction of the machine's total capacity. The paper
// normalizes both task demands and available resources this way so that
// the numerical range of a dimension (e.g. 16 cores vs. 32 GB) does not
// skew the alignment score (§3.2).
func (v Vector) Normalize(capacity Vector) Vector { return v.Div(capacity) }

// AlignmentScore is the packing heuristic's cosine-similarity-style score:
// the dot product of the task demand and the machine's available
// resources, both normalized by the machine capacity. Larger is better.
func AlignmentScore(demand, available, capacity Vector) float64 {
	return demand.Normalize(capacity).Dot(available.Normalize(capacity))
}

// DominantShare returns the job-level dominant resource share used by DRF:
// the maximum over dimensions of usage_i / capacity_i, and the dimension
// achieving it.
func DominantShare(usage, capacity Vector) (Kind, float64) {
	return usage.Div(capacity).MaxComponent()
}

// String renders the vector compactly, e.g.
// "[cpu=1 mem=2 diskR=0 diskW=0 netIn=50 netOut=0]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.4g", Kind(i), v[i])
	}
	b.WriteByte(']')
	return b.String()
}

package resources

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// quickCfg bounds generated vector components to a physically plausible
// range so that float overflow (Inf/NaN) does not trip exactness checks.
var quickCfg = &quick.Config{
	Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			var v Vector
			for j := range v {
				v[j] = (r.Float64() - 0.5) * 2e6
			}
			args[i] = reflect.ValueOf(v)
		}
	},
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndGet(t *testing.T) {
	v := New(1, 2, 3, 4, 5, 6)
	want := map[Kind]float64{CPU: 1, Memory: 2, DiskRead: 3, DiskWrite: 4, NetIn: 5, NetOut: 6}
	for k, w := range want {
		if got := v.Get(k); got != w {
			t.Errorf("Get(%v) = %v, want %v", k, got, w)
		}
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	v := New(1, 1, 1, 1, 1, 1)
	w := v.With(CPU, 9)
	if v.Get(CPU) != 1 {
		t.Errorf("With mutated receiver: %v", v)
	}
	if w.Get(CPU) != 9 {
		t.Errorf("With(CPU,9) = %v", w)
	}
}

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3, 4, 5, 6)
	b := New(6, 5, 4, 3, 2, 1)
	sum := a.Add(b)
	for i := range sum {
		if sum[i] != 7 {
			t.Fatalf("Add: component %d = %v, want 7", i, sum[i])
		}
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub: got %v, want %v", diff, a)
	}
}

func TestScale(t *testing.T) {
	v := New(1, 2, 3, 4, 5, 6).Scale(2)
	if v != New(2, 4, 6, 8, 10, 12) {
		t.Errorf("Scale(2) = %v", v)
	}
}

func TestDivZeroCapacity(t *testing.T) {
	v := New(1, 2, 0, 0, 0, 0)
	cap := New(2, 0, 1, 1, 1, 1)
	got := v.Div(cap)
	if got[CPU] != 0.5 {
		t.Errorf("Div cpu = %v, want 0.5", got[CPU])
	}
	if got[Memory] != 0 {
		t.Errorf("Div by zero capacity should yield 0, got %v", got[Memory])
	}
}

func TestFitsIn(t *testing.T) {
	cap := New(16, 32, 400, 400, 1000, 1000)
	cases := []struct {
		name string
		d    Vector
		want bool
	}{
		{"zero fits", Vector{}, true},
		{"exact fits", cap, true},
		{"cpu over", cap.With(CPU, 16.1), false},
		{"net over", cap.With(NetOut, 1001), false},
		{"tiny epsilon fits", cap.With(CPU, 16+1e-12), true},
	}
	for _, c := range cases {
		if got := c.d.FitsIn(cap); got != c.want {
			t.Errorf("%s: FitsIn = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSameBits(t *testing.T) {
	a := New(1, 2, 0, 0, math.NaN(), 0)
	if !a.SameBits(a) {
		t.Error("identical vectors (NaN included) reported different")
	}
	if b := a.With(DiskRead, math.Copysign(0, -1)); a.SameBits(b) {
		t.Error("+0 and −0 reported bit-identical")
	}
	if b := a.With(CPU, 1.5); a.SameBits(b) {
		t.Error("different values reported bit-identical")
	}
}

func TestDotAndNorm(t *testing.T) {
	a := New(1, 0, 0, 0, 0, 0)
	b := New(0, 1, 0, 0, 0, 0)
	if a.Dot(b) != 0 {
		t.Errorf("orthogonal dot = %v", a.Dot(b))
	}
	if !almostEqual(a.L2Norm(), 1) {
		t.Errorf("norm = %v", a.L2Norm())
	}
	v := New(3, 4, 0, 0, 0, 0)
	if !almostEqual(v.L2Norm(), 5) {
		t.Errorf("norm(3,4) = %v, want 5", v.L2Norm())
	}
}

func TestMaxMinClamp(t *testing.T) {
	a := New(1, 5, 2, 8, 0, 3)
	b := New(4, 2, 2, 9, 1, 0)
	max := a.Max(b)
	min := a.Min(b)
	for i := range a {
		if max[i] != math.Max(a[i], b[i]) {
			t.Errorf("Max[%d] = %v", i, max[i])
		}
		if min[i] != math.Min(a[i], b[i]) {
			t.Errorf("Min[%d] = %v", i, min[i])
		}
	}
	clamped := New(-1, 100, 1, 1, 1, 1).Clamp(New(2, 2, 2, 2, 2, 2))
	if clamped != New(0, 2, 1, 1, 1, 1) {
		t.Errorf("Clamp = %v", clamped)
	}
}

func TestMaxComponent(t *testing.T) {
	v := New(0.1, 0.9, 0.3, 0, 0, 0.2)
	k, val := v.MaxComponent()
	if k != Memory || val != 0.9 {
		t.Errorf("MaxComponent = %v,%v", k, val)
	}
}

func TestDominantShare(t *testing.T) {
	cap := New(10, 100, 0, 0, 0, 0)
	use := New(2, 50, 0, 0, 0, 0)
	k, s := DominantShare(use, cap)
	if k != Memory || !almostEqual(s, 0.5) {
		t.Errorf("DominantShare = %v %v, want mem 0.5", k, s)
	}
}

func TestAlignmentScorePrefersAbundant(t *testing.T) {
	cap := New(10, 10, 0, 0, 0, 100)
	// Machine has lots of free network, little free CPU.
	avail := New(2, 5, 0, 0, 0, 90)
	netTask := New(1, 1, 0, 0, 0, 50)
	cpuTask := New(2, 1, 0, 0, 0, 0)
	if AlignmentScore(netTask, avail, cap) <= AlignmentScore(cpuTask, avail, cap) {
		t.Errorf("network-hungry task should align better with network-rich machine")
	}
}

func TestAlignmentScorePrefersLarger(t *testing.T) {
	cap := New(10, 10, 10, 10, 10, 10)
	avail := cap
	small := New(1, 1, 1, 1, 1, 1)
	large := small.Scale(2)
	if AlignmentScore(large, avail, cap) <= AlignmentScore(small, avail, cap) {
		t.Errorf("larger task should have higher alignment on an empty machine")
	}
}

func TestString(t *testing.T) {
	s := New(1, 2, 3, 4, 5, 6).String()
	for _, want := range []string{"cpu=1", "mem=2", "netOut=6"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || NetOut.String() != "netOut" {
		t.Errorf("kind names wrong: %v %v", CPU, NetOut)
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range kind = %q", got)
	}
	if len(Kinds()) != int(NumKinds) {
		t.Errorf("Kinds() has %d entries", len(Kinds()))
	}
}

// Property: Add is commutative and associative (exact for float swaps of
// identical operands order — we only test commutativity which is exact).
func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b Vector) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: Sub then Add restores within epsilon.
func TestSubAddInverseProperty(t *testing.T) {
	f := func(a, b Vector) bool {
		got := a.Sub(b).Add(b)
		for i := range got {
			if !almostEqual(got[i], a[i]) && math.Abs(got[i]-a[i]) > 1e-6*math.Abs(a[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: a vector always fits in itself, and never fits in a strictly
// smaller capacity (when some positive component shrinks).
func TestFitsInProperty(t *testing.T) {
	f := func(a Vector) bool {
		a = a.Max(Vector{}) // make non-negative
		if !a.FitsIn(a) {
			return false
		}
		for i := range a {
			if a[i] > 1e-6 {
				smaller := a.With(Kind(i), a[i]*0.5)
				if a.FitsIn(smaller) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: dot product is symmetric.
func TestDotSymmetricProperty(t *testing.T) {
	f := func(a, b Vector) bool { return a.Dot(b) == b.Dot(a) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: normalization by capacity yields components in [0,1] when the
// demand fits in the capacity.
func TestNormalizeBoundedProperty(t *testing.T) {
	f := func(a Vector) bool {
		a = a.Max(Vector{})
		cap := a.Add(New(1, 1, 1, 1, 1, 1))
		n := a.Normalize(cap)
		for i := range n {
			if n[i] < 0 || n[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestMulMaskSumZeroNonNegative(t *testing.T) {
	a := New(1, 2, 3, 0, 5, 6)
	b := New(2, 0, 1, 4, 1, 1)
	if got := a.Mul(b); got != New(2, 0, 3, 0, 5, 6) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.MaskBy(b); got != New(1, 0, 3, 0, 5, 6) {
		t.Errorf("MaskBy = %v", got)
	}
	if got := a.Sum(); got != 17 {
		t.Errorf("Sum = %v", got)
	}
	if a.IsZero() {
		t.Error("non-zero vector reported zero")
	}
	if !(Vector{}).IsZero() {
		t.Error("zero vector not reported zero")
	}
	if !a.NonNegative() {
		t.Error("non-negative vector rejected")
	}
	if a.With(DiskRead, -1).NonNegative() {
		t.Error("negative vector accepted")
	}
}

// Property: MaskBy never increases any component, and masked components
// are exactly where the mask is zero.
func TestMaskByProperty(t *testing.T) {
	f := func(a, mask Vector) bool {
		got := a.MaskBy(mask)
		for i := range got {
			if mask[i] == 0 && got[i] != 0 {
				return false
			}
			if mask[i] != 0 && got[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

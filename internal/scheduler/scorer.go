package scheduler

import "github.com/tetris-sched/tetris/internal/resources"

// Scorer computes a packing alignment score for placing a task with a
// given (placement-adjusted) demand on a machine with given available
// resources; all policies pick the highest score. The alternatives are
// the vector bin-packing heuristics the paper compares in §5.3.1
// (Table 8): Tetris' cosine-similarity dot product wins on both job
// completion time and makespan.
//
// A score sees demand and availability only in capacity-normalized
// form, so the core normalizes the demand once per (task, machine) and
// the availability once per placement instead of once per evaluated
// pair.
type Scorer interface {
	Name() string
	// ScoreNorm scores pre-normalized vectors: normDemand and normAvail
	// are demand.Normalize(capacity) and available.Normalize(capacity).
	ScoreNorm(normDemand, normAvail resources.Vector) float64
}

// CosineScorer is Tetris' alignment score: the dot product of demand and
// availability, both normalized by machine capacity (§3.2).
type CosineScorer struct{}

// Name implements Scorer.
func (CosineScorer) Name() string { return "cosine" }

// ScoreNorm implements Scorer.
func (CosineScorer) ScoreNorm(normDemand, normAvail resources.Vector) float64 {
	return normDemand.Dot(normAvail)
}

// L2NormDiffScorer minimizes Σ(availableᵢ−demandᵢ)²: it prefers tasks
// that leave the least residual imbalance on the machine.
type L2NormDiffScorer struct{}

// Name implements Scorer.
func (L2NormDiffScorer) Name() string { return "l2-norm-diff" }

// ScoreNorm implements Scorer.
func (L2NormDiffScorer) ScoreNorm(normDemand, normAvail resources.Vector) float64 {
	diff := normAvail.Sub(normDemand)
	return -diff.Dot(diff)
}

// L2NormRatioScorer minimizes Σ(demandᵢ/availableᵢ)² over dimensions with
// headroom: it avoids tasks that bite deep into scarce resources.
type L2NormRatioScorer struct{}

// Name implements Scorer.
func (L2NormRatioScorer) Name() string { return "l2-norm-ratio" }

// ScoreNorm implements Scorer.
func (L2NormRatioScorer) ScoreNorm(normDemand, normAvail resources.Vector) float64 {
	s := 0.0
	for _, k := range resources.Kinds() {
		if normAvail.Get(k) > 0 {
			r := normDemand.Get(k) / normAvail.Get(k)
			s += r * r
		}
	}
	return -s
}

// FFDProdScorer is first-fit-decreasing by demand product: a
// machine-independent "size" that prefers big tasks first.
type FFDProdScorer struct{}

// Name implements Scorer.
func (FFDProdScorer) Name() string { return "ffd-prod" }

// ScoreNorm implements Scorer. The availability is unused: FFD sizes
// tasks machine-independently.
func (FFDProdScorer) ScoreNorm(normDemand, _ resources.Vector) float64 {
	p := 1.0
	any := false
	for _, k := range resources.Kinds() {
		if v := normDemand.Get(k); v > 0 {
			p *= v
			any = true
		}
	}
	if !any {
		return 0
	}
	return p
}

// FFDSumScorer is first-fit-decreasing by normalized demand sum.
type FFDSumScorer struct{}

// Name implements Scorer.
func (FFDSumScorer) Name() string { return "ffd-sum" }

// ScoreNorm implements Scorer.
func (FFDSumScorer) ScoreNorm(normDemand, _ resources.Vector) float64 {
	return normDemand.Sum()
}

// Scorers lists every implemented alignment heuristic in the order the
// paper's Table 8 reports them.
func Scorers() []Scorer {
	return []Scorer{CosineScorer{}, L2NormDiffScorer{}, L2NormRatioScorer{}, FFDProdScorer{}, FFDSumScorer{}}
}

package core

import "fmt"

// Algorithm 1's constants (Section II-E).
const (
	// historyWindow is M, the length of the capacity-history buffer W.
	historyWindow = 10
	// incrementFraction is eta, the capacity probe step, as a fraction of
	// the profiled capacity.
	incrementFraction = 0.005
	// sigmaFactor is the multiplier on sigma in the capacity lower bound
	// Omega_prof - 3*sigma.
	sigmaFactor = 3
)

// CapacityEstimator implements Algorithm 1, Adaptive Capacity Estimation:
// it maintains the per-period token budget Omega_t from the completed-I/O
// totals the clients report.
//
//   - If the clients consumed the entire budget (U >= Omega_t) the
//     capacity may be underestimated: probe upward by eta.
//     (The paper states the trigger as U == Omega_t; completions are
//     token-gated so equality is the steady state, but period-boundary
//     skew can push U a few I/Os past Omega_t — ">=" is the robust
//     reading.)
//   - If U landed between the lower bound and the budget, the system was
//     demand- or capacity-limited below the budget: remember U in the
//     history window W and set Omega to the window mean.
//   - If U fell below the lower bound Omega_prof - sigmaFactor*sigma, the
//     period was idle; ignore it so low-demand periods cannot drag the
//     estimate to an unreasonably low value.
type CapacityEstimator struct {
	lowerBound int64
	eta        int64
	history    []int64
	current    int64
}

// NewCapacityEstimator builds an estimator from a profiling run: profiled
// is Omega_prof in I/Os per QoS period, sigma its standard deviation.
func NewCapacityEstimator(p Params, profiled int64, sigma float64) (*CapacityEstimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if profiled <= 0 {
		return nil, fmt.Errorf("core: profiled capacity must be positive, got %d", profiled)
	}
	if sigma < 0 {
		return nil, fmt.Errorf("core: sigma must be non-negative, got %v", sigma)
	}
	lb := profiled - int64(sigmaFactor*sigma)
	if lb < 0 {
		lb = 0
	}
	eta := int64(incrementFraction * float64(profiled))
	if eta < 1 {
		eta = 1
	}
	return &CapacityEstimator{
		lowerBound: lb,
		eta:        eta,
		current:    profiled,
	}, nil
}

// Current returns Omega_t, the token budget for the current period.
func (e *CapacityEstimator) Current() int64 { return e.current }

// LowerBound returns Omega_min = Omega_prof - sigmaFactor*sigma.
func (e *CapacityEstimator) LowerBound() int64 { return e.lowerBound }

// Update consumes one period's total completed I/Os U and returns the new
// estimate Omega_{t+1}.
func (e *CapacityEstimator) Update(total int64) int64 {
	switch {
	case total >= e.current:
		e.current += e.eta
	case total >= e.lowerBound:
		e.history = append(e.history, total)
		if len(e.history) > historyWindow {
			e.history = e.history[1:]
		}
		var sum int64
		for _, v := range e.history {
			sum += v
		}
		e.current = sum / int64(len(e.history))
	default:
		// Idle period: keep the estimate.
	}
	return e.current
}

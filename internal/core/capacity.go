package core

import "fmt"

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
//   - If U fell below the lower bound Omega_prof - SigmaFactor*sigma, the
//     period was idle; ignore it so low-demand periods cannot drag the
//     estimate to an unreasonably low value.
type CapacityEstimator struct {
	lowerBound int64
	eta        int64
	windowSize int
	history    []int64
	current    int64
	// underuse tracks Algorithm 1's per-client counters, indexed by client
	// id: consecutive periods in which a client used less than its
	// reservation.
	underuse []int
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
	lb := profiled - int64(p.SigmaFactor*sigma)
	if lb < 0 {
		lb = 0
	}
	eta := int64(p.IncrementFraction * float64(profiled))
	if eta < 1 {
		eta = 1
	}
	return &CapacityEstimator{
		lowerBound: lb,
		eta:        eta,
		windowSize: p.HistoryWindow,
		current:    profiled,
	}, nil
}

// Current returns Omega_t, the token budget for the current period.
func (e *CapacityEstimator) Current() int64 { return e.current }

// LowerBound returns Omega_min = Omega_prof - SigmaFactor*sigma.
func (e *CapacityEstimator) LowerBound() int64 { return e.lowerBound }

// Update consumes one period's total completed I/Os U and returns the new
// estimate Omega_{t+1}.
func (e *CapacityEstimator) Update(total int64) int64 {
	switch {
	case total >= e.current:
		e.current += e.eta
	case total >= e.lowerBound:
		e.history = append(e.history, total)
		if len(e.history) > e.windowSize {
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

// ObserveClientUsage updates client id's Algorithm 1 under-use counter
// with one period's completed I/Os: incremented when used fell below the
// reservation, cleared otherwise. It returns the new streak; the monitor
// alerts the client's QoS engine, which may have over-reserved, when it
// reaches the configured length.
func (e *CapacityEstimator) ObserveClientUsage(id int, used, reserved int64) int {
	if id >= len(e.underuse) {
		e.underuse = append(e.underuse, make([]int, id+1-len(e.underuse))...)
	}
	if used < reserved {
		e.underuse[id]++
	} else {
		e.underuse[id] = 0
	}
	return e.underuse[id]
}

// UnderuseStreak returns the current consecutive under-use count for a
// client.
func (e *CapacityEstimator) UnderuseStreak(id int) int {
	if id < 0 || id >= len(e.underuse) {
		return 0
	}
	return e.underuse[id]
}

package core

import (
	"testing"
	"testing/quick"
)

func TestPackUnpackReport(t *testing.T) {
	tests := []struct {
		residual, completed uint32
	}{
		{0, 0},
		{1413, 157000},
		{0xFFFFFFFF, 0xFFFFFFFF},
		{1, 0},
		{0, 1},
	}
	for _, tt := range tests {
		r, c := UnpackReport(PackReport(tt.residual, tt.completed))
		if r != tt.residual || c != tt.completed {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", tt.residual, tt.completed, r, c)
		}
	}
}

func TestPackReportProperty(t *testing.T) {
	f := func(residual, completed uint32) bool {
		r, c := UnpackReport(PackReport(residual, completed))
		return r == residual && c == completed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampUint32(t *testing.T) {
	tests := []struct {
		in   int64
		want uint32
	}{
		{-5, 0},
		{0, 0},
		{42, 42},
		{1 << 40, 0xFFFFFFFF},
	}
	for _, tt := range tests {
		if got := clampUint32(tt.in); got != tt.want {
			t.Errorf("clampUint32(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := NewDefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.Period = 0 },
		func(p *Params) { p.Tick = 0 },
		func(p *Params) { p.Tick = p.Period * 2 },
		func(p *Params) { p.CheckInterval = 0 },
		func(p *Params) { p.ReportInterval = 0 },
		func(p *Params) { p.Batch = 0 },
	}
	for i, mutate := range mutations {
		p := NewDefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestParamsScaled(t *testing.T) {
	def := NewDefaultParams()
	p := def.Scaled(10)
	if p.Period != def.Period {
		t.Errorf("scaled period = %v, must stay %v", p.Period, def.Period)
	}
	if p.Tick != 10*def.Tick || p.CheckInterval != 10*def.CheckInterval || p.ReportInterval != 10*def.ReportInterval {
		t.Errorf("scaled intervals = %v/%v/%v, want 10x", p.Tick, p.CheckInterval, p.ReportInterval)
	}
	if p.Batch != def.Batch/10 {
		t.Errorf("scaled batch = %d, want %d", p.Batch, def.Batch/10)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("scaled params invalid: %v", err)
	}
	// Extreme scales cap the intervals at Period/10 and floor the batch at 1.
	if q := def.Scaled(1e6); q.Tick != def.Period/10 || q.Batch != 1 {
		t.Errorf("Scaled(1e6): tick %v batch %d, want %v and 1", q.Tick, q.Batch, def.Period/10)
	}
	// Identity at full scale and for non-positive factors.
	if def.Scaled(1) != def || def.Scaled(0) != def {
		t.Error("Scaled(<=1) changed the params")
	}
}

func newTestEstimator(t *testing.T, profiled int64, sigma float64) *CapacityEstimator {
	t.Helper()
	e, err := NewCapacityEstimator(NewDefaultParams(), profiled, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewCapacityEstimator(NewDefaultParams(), 0, 1); err == nil {
		t.Error("zero profiled accepted")
	}
	if _, err := NewCapacityEstimator(NewDefaultParams(), 100, -1); err == nil {
		t.Error("negative sigma accepted")
	}
	bad := NewDefaultParams()
	bad.Period = 0
	if _, err := NewCapacityEstimator(bad, 100, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestEstimatorInitial(t *testing.T) {
	e := newTestEstimator(t, 1_570_000, 10_000)
	if e.Current() != 1_570_000 {
		t.Errorf("initial = %d", e.Current())
	}
	if e.LowerBound() != 1_570_000-30_000 {
		t.Errorf("lower bound = %d", e.LowerBound())
	}
	if e.eta != int64(0.005*1_570_000) {
		t.Errorf("eta = %d", e.eta)
	}
}

func TestEstimatorLowerBoundClamped(t *testing.T) {
	e := newTestEstimator(t, 100, 1000)
	if e.LowerBound() != 0 {
		t.Errorf("lower bound = %d, want 0", e.LowerBound())
	}
}

func TestEstimatorProbesUpOnSaturation(t *testing.T) {
	e := newTestEstimator(t, 1000, 0)
	// Full consumption -> underestimation suspected -> +eta.
	next := e.Update(1000)
	if next != 1000+e.eta {
		t.Errorf("after saturation: %d, want %d", next, 1000+e.eta)
	}
	// Over-consumption (boundary skew) also probes up.
	next2 := e.Update(next + 3)
	if next2 != next+e.eta {
		t.Errorf("after over-consumption: %d, want %d", next2, next+e.eta)
	}
}

func TestEstimatorHistoryMean(t *testing.T) {
	e := newTestEstimator(t, 1000, 30) // lower bound 910
	e.Update(950)
	if e.Current() != 950 {
		t.Errorf("after one sample: %d, want 950", e.Current())
	}
	e.Update(930)
	if e.Current() != 940 {
		t.Errorf("after two samples: %d, want mean 940", e.Current())
	}
}

func TestEstimatorIgnoresIdlePeriods(t *testing.T) {
	e := newTestEstimator(t, 1000, 10) // lower bound 970
	e.Update(100)                      // far below lower bound: idle period
	if e.Current() != 1000 {
		t.Errorf("idle period changed estimate to %d", e.Current())
	}
}

func TestEstimatorWindowEviction(t *testing.T) {
	e := newTestEstimator(t, 1000, 100) // lower bound 700
	// M = 10 falling usages fill the window: [900 880 ... 720], mean 810.
	for u := int64(900); u >= 720; u -= 20 {
		e.Update(u)
	}
	if len(e.history) != historyWindow || e.Current() != 810 {
		t.Fatalf("window %d, mean = %d, want %d and 810", len(e.history), e.Current(), historyWindow)
	}
	e.Update(701)
	// Oldest (900) evicted: [880 ... 720 701], mean 7901/10 = 790.
	if len(e.history) != historyWindow || e.Current() != 790 {
		t.Errorf("after eviction window %d, mean = %d, want %d and 790", len(e.history), e.Current(), historyWindow)
	}
}

func TestEstimatorConvergesDownUnderCongestion(t *testing.T) {
	e := newTestEstimator(t, 1000, 100)
	// Capacity silently drops to 850: clients keep reporting 850.
	for i := 0; i < 30; i++ {
		e.Update(850)
	}
	if e.Current() < 840 || e.Current() > 870 {
		t.Errorf("estimate %d did not converge to ≈850", e.Current())
	}
}

func TestEstimatorClimbsWhenFreed(t *testing.T) {
	e := newTestEstimator(t, 1000, 100)
	for i := 0; i < 20; i++ {
		e.Update(850)
	}
	low := e.Current()
	// Congestion ends: clients consume everything offered; the estimate
	// climbs by eta per period.
	for i := 0; i < 5; i++ {
		e.Update(e.Current())
	}
	if e.Current() != low+5*e.eta {
		t.Errorf("climb: %d, want %d", e.Current(), low+5*e.eta)
	}
}

// Property: the estimate never falls below the lower bound when fed
// arbitrary usage sequences at or above zero.
func TestEstimatorLowerBoundProperty(t *testing.T) {
	f := func(usages []uint32) bool {
		e, err := NewCapacityEstimator(NewDefaultParams(), 100_000, 1000)
		if err != nil {
			return false
		}
		for _, u := range usages {
			e.Update(int64(u % 200_000))
			if e.Current() < e.LowerBound() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdmissionValidation(t *testing.T) {
	if _, err := NewAdmissionController(0, 10); err == nil {
		t.Error("zero aggregate accepted")
	}
	if _, err := NewAdmissionController(10, 0); err == nil {
		t.Error("zero local accepted")
	}
}

func TestAdmissionConstraints(t *testing.T) {
	a, err := NewAdmissionController(1_570_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	// Local violation: one client cannot reserve more than C_L*T.
	if err := a.Admit(0, 500_000); err == nil {
		t.Error("local capacity violation accepted")
	}
	// Fine at the local cap.
	if err := a.Admit(0, 400_000); err != nil {
		t.Errorf("at-cap reservation rejected: %v", err)
	}
	if err := a.Admit(1, 400_000); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(2, 400_000); err != nil {
		t.Fatal(err)
	}
	// Aggregate violation: 400K*3 + 400K > 1570K.
	if err := a.Admit(3, 400_000); err == nil {
		t.Error("aggregate capacity violation accepted")
	}
	var admErr *ErrAdmission
	if err := a.Admit(3, 400_000); err != nil {
		if !asAdmissionErr(err, &admErr) {
			t.Errorf("error type = %T, want *ErrAdmission", err)
		}
	}
	if a.Reserved() != 1_200_000 {
		t.Errorf("Reserved = %d", a.Reserved())
	}
	if a.Headroom() != 370_000 {
		t.Errorf("Headroom = %d", a.Headroom())
	}
	// Duplicate id.
	if err := a.Admit(0, 10); err == nil {
		t.Error("duplicate id accepted")
	}
	// Negative reservation.
	if err := a.Admit(9, -1); err == nil {
		t.Error("negative reservation accepted")
	}
	// Release frees capacity.
	a.Release(0)
	if err := a.Admit(3, 370_000+400_000-400_000); err != nil {
		t.Errorf("post-release admit failed: %v", err)
	}
	a.Release(42) // unknown id: no-op
}

func asAdmissionErr(err error, target **ErrAdmission) bool {
	e, ok := err.(*ErrAdmission)
	if ok {
		*target = e
	}
	return ok
}

func TestLocalViolation(t *testing.T) {
	a, _ := NewAdmissionController(100, 50)
	// Example 2 of the paper: C_L = 50, client 1 has R=40 and has
	// completed 10 by t=0.5: needs 30 more but only 25 achievable.
	if v := a.LocalViolation(40, 10, 0.5); v != 5 {
		t.Errorf("violation = %d, want 5", v)
	}
	// Satisfiable case.
	if v := a.LocalViolation(40, 30, 0.5); v != 0 {
		t.Errorf("violation = %d, want 0", v)
	}
	// Clamping.
	if v := a.LocalViolation(40, 0, -1); v != 0 {
		t.Errorf("violation at t<0 = %d, want 0 (full period left)", v)
	}
	if v := a.LocalViolation(40, 10, 2); v != 30 {
		t.Errorf("violation at t>1 = %d, want full residual 30", v)
	}
}

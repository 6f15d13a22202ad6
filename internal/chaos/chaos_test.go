package chaos

import (
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

func TestParseCustomSpec(t *testing.T) {
	sc, err := Parse("crash@2.5:c=0; restart@5p:c=0; outage@7+1; degrade@9+2:factor=4; jitter@11+1:extra=2us; burst@12+0.5:jobs=3,window=24")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom" || len(sc.Events) != 6 {
		t.Fatalf("scenario %q with %d events", sc.Name, len(sc.Events))
	}
	want := []FaultEvent{
		{Kind: CrashClient, At: 2.5, Client: 0},
		{Kind: RestartClient, At: 5, Client: 0},
		{Kind: MonitorOutage, At: 7, Duration: 1, Client: -1},
		{Kind: DegradeNIC, At: 9, Duration: 2, Client: -1, Factor: 4},
		{Kind: LinkStorm, At: 11, Duration: 1, Client: -1, Extra: 2 * sim.Microsecond},
		{Kind: CongestionBurst, At: 12, Duration: 0.5, Client: -1, Jobs: 3, Window: 24},
	}
	for i, ev := range sc.Events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if err := sc.Validate(2, true); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	c := sc.Count()
	if c != (Counts{Crashes: 1, Restarts: 1, Outages: 1, Degrades: 1, Storms: 1, Bursts: 1}) {
		t.Errorf("counts %+v", c)
	}
}

func TestParseRoundTrip(t *testing.T) {
	sc, err := Parse("crash@2.5:c=1;outage@7+1.25;degrade@9+2:c=0,factor=4;jitter@11+1:extra=2us")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(sc.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", sc.String(), err)
	}
	for i, ev := range again.Events {
		if ev != sc.Events[i] {
			t.Errorf("round trip event %d: %+v != %+v", i, ev, sc.Events[i])
		}
	}
}

func TestParsePresets(t *testing.T) {
	for name := range presets {
		sc, err := Parse(name)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if sc.Name != name {
			t.Errorf("preset %q parsed with name %q", name, sc.Name)
		}
		if err := sc.Validate(2, true); err != nil {
			t.Errorf("preset %q invalid for a 2-client QoS cluster: %v", name, err)
		}
	}
	// The acceptance scenario combines crash+restart, outage and NIC
	// degradation in one run.
	sc, _ := Parse("set5")
	if c := sc.Count(); c.Crashes != 1 || c.Restarts != 1 || c.Outages != 1 || c.Degrades != 1 {
		t.Errorf("set5 counts %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, wantErr string }{
		{"", "empty"},
		{"flood@2", "unknown fault kind"},
		{"crash@", "bad period count"},
		{"crash@-1:c=0", "negative"},
		{"crash@2", "requires a client"},
		{"crash@2+1:c=0", "takes no duration"},
		{"outage@2", "requires '+<duration>'"},
		{"degrade@2+1:factor=1", "factor must be > 1"},
		{"jitter@2+1", "extra=<delay>"},
		{"jitter@2+1:extra=2parsecs", "bad duration"},
		{"burst@2+1:jobs=0", "jobs > 0"},
		{"burst@2", "requires '+<duration>'"},
		{"burst@NaN+1", "not a finite number"},
		{"burst@2+NaN", "not a finite number"},
		{"outage@1+Inf", "not a finite number"},
		{"crash@-Inf:c=0", "not a finite number"},
		{"degrade@1+1:factor=NaN", "not a finite number"},
		{"degrade@1+1:factor=+Inf", "not a finite number"},
		{"jitter@2+1:extra=NaNus", "bad duration"},
		{"crash@2:c=0,badkey=1", "unknown option"},
		{"crash@2:c", "not key=value"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.spec, err, c.wantErr)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		spec, wantErr string
		clients       int
		qos           bool
	}{
		{"crash@2:c=5", "out of range", 2, true},
		{"crash@2:c=0", "requires a QoS mode", 2, false},
		{"outage@2+1", "requires a QoS mode", 2, false},
		{"restart@2:c=0", "without a preceding crash", 2, true},
		{"crash@3:c=0;restart@2:c=0", "without a preceding crash", 2, true},
		{"degrade@2+1:c=9,factor=4", "out of range", 2, true},
	}
	for _, c := range cases {
		sc, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		err = sc.Validate(c.clients, c.qos)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Validate(%q) = %v, want error containing %q", c.spec, err, c.wantErr)
		}
	}
}

func TestExcusesSpan(t *testing.T) {
	sc, err := Parse("outage@3+1;degrade@6.25+1.5:factor=4;degrade@20+1:c=1,factor=2")
	if err != nil {
		t.Fatal(err)
	}
	T := sim.Second
	span := func(p int) (start, end sim.Time) { // period p spans [(p-1)T, pT)
		return sim.Time(p-1) * T, sim.Time(p) * T
	}
	excuses := func(client, p int) bool {
		s, e := span(p)
		return sc.ExcusesSpan(client, s, e, 0, T)
	}
	// Monitor outages excuse nothing: the floor must hold through them.
	if excuses(0, 4) {
		t.Error("outage excused a surviving client")
	}
	// Server-NIC degradation [6.25, 7.75] overlaps periods 7-8, and its
	// settling tail covers the deferred-service drain: T plus
	// duration x (factor-1) = 1 + 1.5*3 = 5.5 periods past the window,
	// so periods up through 14 (ending at 13.25+) are still excused.
	for _, p := range []int{7, 8, 10, 14} {
		if !excuses(0, p) {
			t.Errorf("server degrade window did not excuse period %d", p)
		}
	}
	if excuses(0, 5) || excuses(0, 15) {
		t.Error("server degrade window excused a period outside it")
	}
	// Client-NIC degradation excuses only that client (tail 1+1*1 = 2T).
	if !excuses(1, 21) {
		t.Error("client degrade window did not excuse its own client")
	}
	if excuses(0, 21) {
		t.Error("client degrade window excused another client")
	}
}

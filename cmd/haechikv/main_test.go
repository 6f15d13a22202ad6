package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestParseTenants(t *testing.T) {
	tenants, err := parseTenants("gold:40000:0:60000,silver:20000, probe:0:5000:30000")
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 3 {
		t.Fatalf("got %d tenants", len(tenants))
	}
	g := tenants[0]
	if g.Name != "gold" || g.Reservation != 40000 || g.Limit != 0 || g.DemandPerPeriod != 60000 {
		t.Errorf("gold = %+v", g)
	}
	s := tenants[1]
	if s.Name != "silver" || s.Reservation != 20000 {
		t.Errorf("silver = %+v", s)
	}
	// Default demand: 120% of reservation.
	if s.DemandPerPeriod != 24000 {
		t.Errorf("silver default demand = %d, want 24000", s.DemandPerPeriod)
	}
	p := tenants[2]
	if p.Name != "probe" || p.Reservation != 0 || p.Limit != 5000 || p.DemandPerPeriod != 30000 {
		t.Errorf("probe = %+v", p)
	}
}

func TestParseTenantsErrors(t *testing.T) {
	cases := []string{
		"",
		"noreservation",
		"x:abc",
		"x:1:2:3:4",
		"a:100:0:-5", // a negative demand would wrap to a huge uint64
		",,,",
	}
	for _, c := range cases {
		if _, err := parseTenants(c); err == nil {
			t.Errorf("parseTenants(%q) accepted", c)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	if code := run([]string{"-tenants", "bad"}, nil); code != 2 {
		t.Errorf("bad tenants exit = %d, want 2", code)
	}
	if code := run([]string{"-tenants", "a:100:0:-5"}, nil); code != 2 {
		t.Errorf("negative demand exit = %d, want 2", code)
	}
	if code := run([]string{"-bogus-flag"}, nil); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

// TestRunOutputPinned holds the demo's stdout to the committed text, so
// a config refactor that moves any default (scale, windows, records,
// seed) shows up as a diff. Regenerate with HAECHI_UPDATE_GOLDEN=1 after
// an intentional change.
func TestRunOutputPinned(t *testing.T) {
	for name, args := range map[string][]string{
		"default":    nil,
		"chaos_set5": {"-chaos", "set5"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(args, &out); code != 0 {
				t.Fatalf("exit %d", code)
			}
			path := filepath.Join("testdata", name+".txt")
			if os.Getenv("HAECHI_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output diverged from %s:\n%s", path, out.Bytes())
			}
		})
	}
}

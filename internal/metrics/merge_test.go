package metrics

import (
	"bytes"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
)

// TestMergeSharded pins the merged-registry column layout: single-owner
// names keep their column, multi-owner names get a summed total plus
// per-shard columns in shard order, all in first-appearance order.
func TestMergeSharded(t *testing.T) {
	mk := func(vals map[string][]float64, names ...string) *Registry {
		r := NewRegistry()
		for _, name := range names {
			name := name
			col := vals[name]
			i := 0
			if err := r.Register(name, func() float64 {
				v := col[min(i, len(col)-1)]
				i++
				return v
			}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	r0 := mk(map[string][]float64{
		"sim/pending": {1, 2},
		"dn/nic":      {10, 20},
	}, "sim/pending", "dn/nic")
	r1 := mk(map[string][]float64{
		"sim/pending": {3, 4},
		"c1/kv":       {100, 200},
	}, "sim/pending", "c1/kv")
	for _, ts := range []sim.Time{5, 9} {
		r0.Sample(ts)
		r1.Sample(ts)
	}

	m, err := MergeSharded([]*Registry{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"sim/pending", "shard0/sim/pending", "shard1/sim/pending", "dn/nic", "c1/kv"}
	got := m.names
	if len(got) != len(wantNames) {
		t.Fatalf("merged names = %v, want %v", got, wantNames)
	}
	for i, w := range wantNames {
		if got[i] != w {
			t.Fatalf("merged names = %v, want %v", got, wantNames)
		}
	}
	// sim/pending is the summed total of its two shard columns.
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	wantCSV := "time_ns,sim/pending,shard0/sim/pending,shard1/sim/pending,dn/nic,c1/kv\n" +
		"5,4,1,3,10,100\n9,6,2,4,20,200\n"
	if buf.String() != wantCSV {
		t.Errorf("merged CSV = %q, want %q", buf.String(), wantCSV)
	}

	// The merged registry is read-only: no new gauges, no new samples.
	if err := m.Register("late", func() float64 { return 0 }); err == nil {
		t.Error("merged registry accepted a new gauge")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Sample on a merged registry did not panic")
			}
		}()
		m.Sample(99)
	}()

	// Identity on a single registry; error on none or on mismatched
	// sampling timelines.
	if one, err := MergeSharded([]*Registry{r0}); err != nil || one != r0 {
		t.Errorf("single-registry merge = (%v, %v), want identity", one, err)
	}
	if _, err := MergeSharded(nil); err == nil {
		t.Error("empty merge did not error")
	}
	r1.Sample(42)
	if _, err := MergeSharded([]*Registry{r0, r1}); err == nil {
		t.Error("mismatched sample timelines did not error")
	}
}

// TestMergeShardedCSV verifies the merged registry exports through the
// standard CSV path with the shard columns in place.
func TestMergeShardedCSV(t *testing.T) {
	r0, r1 := NewRegistry(), NewRegistry()
	_ = r0.Register("sim/x", func() float64 { return 1 })
	_ = r1.Register("sim/x", func() float64 { return 2 })
	r0.Sample(7)
	r1.Sample(7)
	m, err := MergeSharded([]*Registry{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,sim/x,shard0/sim/x,shard1/sim/x\n7,3,1,2\n"
	if buf.String() != want {
		t.Errorf("merged CSV = %q, want %q", buf.String(), want)
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
)

// TestLedgerAgreesWithResults checks the token ledger against every
// output it must agree with, on the runs of the fig9 (backlogged Zipf
// reservations) and Set 5 (crash, restart, monitor outage, NIC
// degradation) goldens: each run's Ledger.Check is nil, every engine's
// row column sums equal its Stats, the monitor's cap column sums to its
// ConversionCount, and the Results those runs derive their per-period
// counts and timelines for are the goldens' bytes.
func TestLedgerAgreesWithResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are not -short")
	}
	for _, id := range []string{"fig9", "set5"} {
		t.Run(id, func(t *testing.T) {
			f, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := f(goldenOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for i, r := range plan.Runs {
				cl, err := cluster.New(r.Config, r.Specs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(r.Warmup, r.Measure)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				checkLedger(t, i, cl, res)
				fmt.Fprintf(&buf, "run %d mode=%s\n", i, res.Mode)
				b, err := json.MarshalIndent(res, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
				buf.WriteByte('\n')
			}
			checkGolden(t, id+".json", buf.Bytes(), false)
		})
	}
}

// checkLedger holds run i's ledger to the laws and to the counters it
// replaced (one data node, so each tenant's engine is its Engine). A Bare
// run has no tokens and no ledger.
func checkLedger(t *testing.T, i int, cl *cluster.Cluster, res *cluster.Results) {
	t.Helper()
	if res.Mode == cluster.Bare {
		if res.Ledger != nil {
			t.Errorf("run %d: a Bare run has a ledger", i)
		}
		return
	}
	if len(res.Ledger) != 1 {
		t.Fatalf("run %d: ledger has %d data nodes, want 1", i, len(res.Ledger))
	}
	if err := res.Ledger.Check(); err != nil {
		t.Errorf("run %d: Ledger.Check: %v", i, err)
	}
	var caps uint64
	for _, r := range res.Ledger[0].Monitor {
		caps += uint64(r.Caps)
	}
	if mon := cl.Monitor(); caps != mon.ConversionCount || len(res.Ledger[0].Monitor) != len(res.OmegaTimeline.Points)+1 {
		t.Errorf("run %d: %d monitor rows capping %d times, want %d rows capping %d",
			i, len(res.Ledger[0].Monitor), caps, len(res.OmegaTimeline.Points)+1, mon.ConversionCount)
	}
	for j, rt := range cl.Clients() {
		var got core.EngineStats
		for _, r := range res.Ledger[0].Engines[j] {
			got.TotalCompleted += uint64(r.Completed)
			got.TokensYielded += int64(r.Yielded)
			got.TokensReturned += int64(r.Returned)
			got.ReservationUsed += int64(r.ResUsed)
			got.GlobalConsumed += int64(r.PoolUsed)
		}
		want := rt.Engine.Stats()
		want.TotalRequested, want.FAAIssued, want.ReportsSent, want.LimitThrottled = 0, 0, 0, 0
		if got != want {
			t.Errorf("run %d client %d: row sums %+v, Stats %+v", i, j, got, want)
		}
	}
}

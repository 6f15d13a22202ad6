package cluster

import (
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/core"
)

// bankLedger builds one data node's ledger: a monitor row per pool, in
// period order from 1, and the engines' rows as given.
func bankLedger(pools []int64, engines ...[]core.LedgerRow) Ledger {
	n := NodeLedger{Engines: engines}
	for i, p := range pools {
		n.Monitor = append(n.Monitor, core.MonitorRow{Period: int32(i + 1), Pool: p})
	}
	return Ledger{n}
}

// TestLedgerCheckPoolBank pins pool-bank on hand-built ledgers: claims
// may run ahead of one period's pool by drawing on the next one (an
// engine the next push has not reached yet), and returns refill the
// pool, but tokens claimed beyond every pool seeded so far, the returns
// and the overdraft were minted.
func TestLedgerCheckPoolBank(t *testing.T) {
	claim := func(p, n int32) core.LedgerRow { return core.LedgerRow{Period: p, Claimed: n} }
	for _, tc := range []struct {
		name string
		l    Ledger
		want string // "" for a clean ledger
	}{
		{"claims within each pool", bankLedger([]int64{100, 100}, []core.LedgerRow{claim(1, 60), claim(2, 60)}, []core.LedgerRow{claim(1, 40), claim(2, 40)}), ""},
		{"a period-2 claim funded by pool 3", bankLedger([]int64{100, 100, 100}, []core.LedgerRow{claim(1, 50), claim(2, 140), claim(3, 60)}), ""},
		{"returns refill the pool", bankLedger([]int64{100}, []core.LedgerRow{{Period: 1, Granted: 30, Claimed: 130, Yielded: 30, Returned: 30}}), ""},
		{"a crash skips a period", bankLedger([]int64{100, 0, 100}, []core.LedgerRow{{}, claim(1, 100), claim(3, 100)}), ""},
		{"claims up to the overdraft", bankLedger([]int64{100}, []core.LedgerRow{claim(1, 110)}), ""},
		{"a mint", bankLedger([]int64{100, 100}, []core.LedgerRow{claim(1, 100), claim(2, 111)}), "pool-bank: data node 0 periods 1-2: claimed 211 > pools and returns 200 + overdraft 10"},
		{"a lost suspended reservation", Ledger{{Monitor: []core.MonitorRow{{Period: 1, Issued: 7, Admitted: 10}}}}, "reclamation-conservation: data node 0 period 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.l.check(10)
			if tc.want == "" && err != nil {
				t.Errorf("check = %v, want nil", err)
			}
			if tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)) {
				t.Errorf("check = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestLedgerCheckAllocatesNothing: Run checks the ledger after every run,
// so a clean ledger must cost no allocation, however many rows it holds.
func TestLedgerCheckAllocatesNothing(t *testing.T) {
	const engines, periods = 64, 32
	pools := make([]int64, periods)
	rows := make([][]core.LedgerRow, engines)
	for p := range pools {
		pools[p] = 1000
		for i := range rows {
			rows[i] = append(rows[i], core.LedgerRow{Period: int32(p + 1), Granted: 20, ResUsed: 20, Claimed: 10, PoolUsed: 10})
		}
	}
	l := bankLedger(pools, rows...)
	if err := l.check(0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = l.check(0) }); n != 0 {
		t.Errorf("checking %d rows allocated %.0f times, want 0", engines*periods, n)
	}
}

// TestRunCatchesMintedTokens: tokens written into the pool cell mid-period
// that no period seeded and no engine returned are claimed by backlogged
// engines, and an unsanitized Run fails naming pool-bank.
func TestRunCatchesMintedTokens(t *testing.T) {
	specs := make([]ClientSpec, 10)
	for i := range specs {
		specs[i] = ClientSpec{Reservation: 1000, Demand: ConstantDemand(5000)}
	}
	cl, err := New(testConfig(Haechi), specs)
	if err != nil {
		t.Fatal(err)
	}
	T := cl.cfg.Params.Period
	cl.kernel.At(T+T/2, func() { _ = cl.Monitor().QoSRegion().PutUint64(0, 1_000_000) })
	if _, err := cl.Run(1, 2); err == nil || !strings.Contains(err.Error(), "pool-bank: data node 0 ") {
		t.Errorf("Run = %v, want a pool-bank breach at data node 0", err)
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/rdma"
)

// goldenCases covers experiment Sets 1-5: saturation and latency curves
// (Set 1: fig6-8), reservation attainment and conversion (Set 2:
// fig9-12), isolation (Set 3: fig13), over/under-provisioning (Set 4:
// fig16/18) and the failure scenario (Set 5). Every experiment returns
// its cluster runs in Report.Runs; their concatenated JSON, in plan
// order, is the byte-identity surface the hot-path refactors must
// preserve. The last two cases pin the
// multi-shard route (mailbox hops, per-shard tickers and flags) the same
// way: their goldens were generated at the commit before the run loops
// were merged, so the one Run is held to both the one-shard and the
// three-shard evidence.
var goldenCases = []struct {
	id     string
	shards int
}{
	{id: "fig6"}, {id: "fig7"}, {id: "fig8"}, // Set 1
	{id: "fig9"}, {id: "fig10"}, {id: "fig12"}, // Set 2
	{id: "fig13"},                // Set 3
	{id: "fig16"}, {id: "fig18"}, // Set 4
	{id: "set5"}, // Set 5
	{id: "fig9", shards: 3}, {id: "set5", shards: 3},
}

// goldenOptions shrinks the runs (the shapes, not the dimensions, are
// what the differential pins): high scale divisor, short windows, few
// clients. Parallel exercises the sweep machinery. Shard placement is
// part of the experiment definition (stable-ID hashing since PR 10), so
// each shard count has its own golden file.
func goldenOptions(shards int) Options {
	o := NewDefaultOptions()
	o.Base.Shards, o.Base.Scale, o.Base.Records, o.Base.Seed = shards, 100, 512, 42
	o.WarmupPeriods, o.MeasurePeriods, o.Parallel = 1, 2, 4
	o.Clients = 10 // the paper's testbed width; reservations are sized per client against C_L
	return o
}

// TestGoldenResultsByteIdentical replays Sets 1-5 and compares every
// cluster run's Results JSON against the goldens generated at the seed
// commit (before the struct-of-arrays/batched-station refactor).
// Regenerate with HAECHI_UPDATE_GOLDEN=1 after an intentional
// model-behavior change — and say why in the commit.
func TestGoldenResultsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden differential is not -short")
	}
	update := os.Getenv("HAECHI_UPDATE_GOLDEN") != ""
	for _, gc := range goldenCases {
		name := gc.id
		if gc.shards > 1 {
			name = fmt.Sprintf("%s_shards%d", gc.id, gc.shards)
		}
		t.Run(name, func(t *testing.T) {
			rep, err := Run(gc.id, goldenOptions(gc.shards))
			if err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			var buf bytes.Buffer
			for i, r := range rep.Runs {
				fmt.Fprintf(&buf, "run %d mode=%s\n", i, r.Results.Mode)
				b, err := json.MarshalIndent(r.Results, "", " ")
				if err != nil {
					t.Fatalf("marshaling run %d: %v", i, err)
				}
				buf.Write(b)
				buf.WriteByte('\n')
			}
			checkGolden(t, name+".json", buf.Bytes(), update)
		})
	}
	// The multi-server golden is the rendered report: it was generated
	// from the separate assembler this experiment used to run on (given
	// cluster's generator seed stride), whose results had another shape,
	// before that assembler was folded into cluster.Config.Servers. The
	// profile golden is rendered too: its Omega_prof and sigma are those
	// of the profiling routine the experiment replaced.
	for _, id := range []string{"multiserver", "profile"} {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, goldenOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id+".txt", []byte(rep.String()), update)
		})
	}
}

// TestGoldenOverheadCounted decodes every committed golden and checks
// that each QoS-mode run's Overhead partitions the one-sided verbs its
// data nodes served over the same window:
// DataReads + FAAs + ControlWrites == ServerStats.OneSidedTargeted.
func TestGoldenOverheadCounted(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden JSON files (%v)", err)
	}
	header := regexp.MustCompile(`(?m)^run (\d+) mode=\S+\n`)
	checked := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		runs := header.FindAllSubmatchIndex(b, -1)
		for i, loc := range runs {
			end := len(b)
			if i+1 < len(runs) {
				end = runs[i+1][0]
			}
			var run struct {
				Mode        cluster.Mode
				ServerStats rdma.Stats
				Overhead    cluster.OverheadReport
			}
			if err := json.Unmarshal(b[loc[1]:end], &run); err != nil {
				t.Fatalf("%s run %s: %v", file, b[loc[2]:loc[3]], err)
			}
			if run.Mode == cluster.Bare {
				continue
			}
			checked++
			o := run.Overhead
			if sum := o.DataReads + o.FAAs + o.ControlWrites; sum != run.ServerStats.OneSidedTargeted {
				t.Errorf("%s run %s: DataReads %d + FAAs %d + ControlWrites %d = %d, want OneSidedTargeted %d",
					file, b[loc[2]:loc[3]], o.DataReads, o.FAAs, o.ControlWrites, sum, run.ServerStats.OneSidedTargeted)
			}
		}
	}
	if checked == 0 {
		t.Error("no QoS-mode run in the goldens")
	}
}

// checkGolden compares got with testdata/golden/<file>, or rewrites the
// file when update is set.
func checkGolden(t *testing.T, file string, got []byte, update bool) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with HAECHI_UPDATE_GOLDEN=1): %v", path, err)
	}
	if !bytes.Equal(want, got) {
		out := filepath.Join(t.TempDir(), file)
		os.WriteFile(out, got, 0o644)
		t.Fatalf("%s diverged from its golden (got %d bytes want %d); inspect with diff %s %s",
			file, len(got), len(want), path, out)
	}
}

package metrics

import (
	"fmt"
)

// MergeSharded combines per-shard registries (one per shard kernel,
// each sampled only from its own shard) into a single read-only
// registry for export. All inputs must have sampled at identical
// instants — in a sharded run every shard kernel carries the same
// metrics ticker, so the sampling timelines coincide by construction.
//
// Column layout, in first-appearance order (shard 0's registration
// order first, then anything new from shard 1, and so on):
//
//   - a name registered on exactly one shard (node, engine, KV and
//     workload gauges — each lives on its owner's shard) keeps its
//     plain name and that shard's column;
//   - a name registered on several shards (sim/* kernel health,
//     trace/* recorder counters) yields a summed total under the plain
//     name — matching what the old cross-shard summing closures
//     exported — followed by one "shard<K>/<name>" column per owning
//     shard in shard order, so imbalance is visible, not just totals.
//
// The merge is pure column arithmetic in fixed order, so it is
// deterministic. A single registry is returned unchanged.
func MergeSharded(regs []*Registry) (*Registry, error) {
	if len(regs) == 0 {
		return nil, fmt.Errorf("metrics: merge: no registries")
	}
	if len(regs) == 1 {
		return regs[0], nil
	}
	base := regs[0].times
	for s, r := range regs[1:] {
		if len(r.times) != len(base) {
			return nil, fmt.Errorf("metrics: merge: shard %d has %d samples, shard 0 has %d",
				s+1, len(r.times), len(base))
		}
		for j := range base {
			if r.times[j] != base[j] {
				return nil, fmt.Errorf("metrics: merge: shard %d sample %d at t=%d, shard 0 at t=%d",
					s+1, j, int64(r.times[j]), int64(base[j]))
			}
		}
	}
	m := NewRegistry()
	m.merged = true
	m.times = base
	type owner struct{ shard, col int }
	owners := make(map[string][]owner)
	var order []string
	for s, r := range regs {
		for i, name := range r.names {
			if _, seen := owners[name]; !seen {
				order = append(order, name)
			}
			owners[name] = append(owners[name], owner{s, i})
		}
	}
	addColumn := func(name string, values []float64) {
		m.index[name] = len(m.names)
		m.names = append(m.names, name)
		m.values = append(m.values, values)
	}
	for _, name := range order {
		os := owners[name]
		if len(os) == 1 {
			addColumn(name, regs[os[0].shard].values[os[0].col])
			continue
		}
		total := make([]float64, len(base))
		for _, o := range os {
			for j, v := range regs[o.shard].values[o.col] {
				total[j] += v
			}
		}
		addColumn(name, total)
		for _, o := range os {
			addColumn(fmt.Sprintf("shard%d/%s", o.shard, name), regs[o.shard].values[o.col])
		}
	}
	return m, nil
}

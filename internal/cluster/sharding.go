package cluster

import (
	"github.com/haechi-qos/haechi/internal/rdma"
	"github.com/haechi-qos/haechi/internal/sim"
)

// ShardAssignment records which shard a node landed on.
type ShardAssignment struct {
	Name  string
	Shard int
}

// ShardingReport summarizes a run on more than one shard. Every
// field is deterministic and part of the byte-identity surface.
type ShardingReport struct {
	// Shards is the effective shard count (after clamping).
	Shards int
	// Lookahead is the conservative quantum Δ (the fabric's propagation
	// delay).
	Lookahead sim.Time
	// Quanta is the number of synchronization quanta executed.
	Quanta uint64
	// CrossMessages is the number of cross-shard mailbox deliveries.
	CrossMessages uint64
	// PerShardEvents is each shard kernel's fired-event count.
	PerShardEvents []uint64
	// IdleQuanta is, per shard, how many quanta fired zero events there —
	// the deterministic proxy for barrier stall: a high count means the
	// shard mostly waited on its peers at the quantum barrier.
	IdleQuanta []uint64
	// Nodes maps cluster nodes to shards (data nodes first, then clients
	// in index order).
	Nodes []ShardAssignment
	// Attribution is the per-shard executed-work profile (shard order);
	// Results.Attribution is its sum.
	Attribution []rdma.ExecProfile
}

// shardingReport assembles the Results entry for a multi-shard run.
func (c *Cluster) shardingReport() *ShardingReport {
	per := make([]uint64, len(c.kernels))
	for s, k := range c.kernels {
		per[s] = k.Executed()
	}
	sr := &ShardingReport{
		Shards:         len(c.kernels),
		Lookahead:      c.group.Delta(),
		Quanta:         c.group.Quanta(),
		CrossMessages:  c.group.CrossMessages(),
		PerShardEvents: per,
		IdleQuanta:     c.group.IdleQuanta(),
		Attribution:    c.fabric.ExecProfiles(),
	}
	for _, dn := range c.nodes {
		sr.Nodes = append(sr.Nodes, ShardAssignment{Name: dn.node.Name(), Shard: dn.node.Shard()})
	}
	for _, rt := range c.clients {
		sr.Nodes = append(sr.Nodes, ShardAssignment{Name: rt.Node.Name(), Shard: rt.Node.Shard()})
	}
	return sr
}

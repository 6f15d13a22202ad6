package trace

import (
	"fmt"
	"strconv"
)

// Actor ids that name no fabric node: the QoS monitor, and one engine
// per client. High tag bits keep them clear of node ids, so an engine's
// id needs neither the table nor the node count.
const (
	// MonitorActor names the QoS monitor ("monitor"); every data node's
	// monitor shares it, as they share the name.
	MonitorActor uint32 = 1 << 31
	engineActor  uint32 = 1 << 30
)

// EngineActor returns the actor id of client's QoS engine, named
// "engine-<client>".
func EngineActor(client int) uint32 { return engineActor | uint32(client) }

// Actors is the name table that spans and events index by actor id. Ids
// below 1<<30 are fabric nodes in the order they were added (the ids of
// rdma.Node); MonitorActor and EngineActor ids are named by rule. The
// table is written only while the fabric is set up, and every shard's
// recorder shares it read-only from the first verb on.
type Actors struct{ nodes []string }

// Add names the next node actor: its id is the number of nodes added
// before it.
func (a *Actors) Add(name string) { a.nodes = append(a.nodes, name) }

// Name returns the name of actor id. A node id the table does not hold
// (or any node id, on a nil table) is named "node-<id>".
func (a *Actors) Name(id uint32) string {
	switch {
	case id == MonitorActor:
		return "monitor"
	case id&^(engineActor-1) == engineActor:
		return "engine-" + strconv.Itoa(int(id&^engineActor))
	case a != nil && uint64(id) < uint64(len(a.nodes)):
		return a.nodes[id]
	}
	return fmt.Sprintf("node-%d", id)
}

package rdma

import "fmt"

// Message is the envelope for two-sided SENDs when several protocols share
// one node (e.g. the KV store RPC handler and the Haechi QoS monitor both
// live on the data node).
type Message struct {
	Kind string
	Body any
}

// Dispatcher routes incoming Messages to per-kind handlers, optionally
// scoped by sender (a multi-server client runs one QoS engine per data
// node on the same client node; each engine handles only its own
// monitor's messages). Bind it to a node once; register handlers before
// or after binding. A node has a handful of routes and a fleet has one
// dispatcher per tenant, so the table is one slice scanned in order.
type Dispatcher struct {
	node   *Node
	routes []route
}

// route delivers messages of one kind, from one sender or (from == nil)
// from any, to handler. A (kind, from) pair appears at most once.
type route struct {
	kind    string
	from    *Node
	handler func(from *Node, body any)
}

// NewDispatcher creates a dispatcher bound to n.
func NewDispatcher(n *Node) *Dispatcher {
	d := &Dispatcher{node: n}
	n.SetRecvHandler(d.dispatch)
	return d
}

// find returns the index of the (kind, from) route, or -1.
func (d *Dispatcher) find(kind string, from *Node) int {
	for i := range d.routes {
		if d.routes[i].from == from && d.routes[i].kind == kind {
			return i
		}
	}
	return -1
}

// Handle registers a handler for messages of the given kind from any
// sender. Registering a duplicate kind is an error.
func (d *Dispatcher) Handle(kind string, h func(from *Node, body any)) error {
	if d.find(kind, nil) >= 0 {
		return fmt.Errorf("rdma: node %s: handler for %q already registered", d.node.name, kind)
	}
	d.routes = append(d.routes, route{kind: kind, handler: h})
	return nil
}

// HandleFrom registers a handler for messages of the given kind sent by
// the specific node. Sender-scoped handlers take precedence over Handle's
// catch-all for the same kind.
func (d *Dispatcher) HandleFrom(kind string, from *Node, h func(from *Node, body any)) error {
	if from == nil {
		return fmt.Errorf("rdma: node %s: HandleFrom requires a sender", d.node.name)
	}
	if d.find(kind, from) >= 0 {
		return fmt.Errorf("rdma: node %s: handler for %q from %s already registered", d.node.name, kind, from.name)
	}
	d.routes = append(d.routes, route{kind: kind, from: from, handler: h})
	return nil
}

func (d *Dispatcher) dispatch(from *Node, payload any) {
	msg, ok := payload.(Message)
	if !ok {
		// Unrouted payloads are dropped; a real RNIC would complete the
		// recv with an unknown-format buffer the application ignores.
		return
	}
	// The handler runs after the scan: it may register routes.
	var h func(from *Node, body any)
	for i := range d.routes {
		r := &d.routes[i]
		if r.kind != msg.Kind {
			continue
		}
		if r.from == from {
			h = r.handler
			break
		}
		if r.from == nil {
			h = r.handler
		}
	}
	if h != nil {
		h(from, msg.Body)
	}
}

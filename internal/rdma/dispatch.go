package rdma

import "fmt"

// Message is a two-sided SEND's payload: the kind a Dispatcher routes on
// when several protocols share one node (e.g. a tenant's KV client and
// its QoS engine), and a few fields whose meaning the kind's protocol
// defines. It is a fixed-size value the SEND's record holds inline, so
// posting one allocates nothing.
type Message struct {
	Kind MsgKind
	Flag bool
	Seq  uint32
	A, B int64
}

// MsgKind names a message's protocol and type. The protocols that share
// a node draw their kinds from the one list below, so no two collide;
// zero is no kind.
type MsgKind uint16

const (
	KindKVGet       MsgKind = iota + 1 // kvstore: a two-sided GET
	KindKVGetResp                      // kvstore: its reply
	KindPeriodStart                    // core: the monitor's period-start push
	KindReportOn                       // core: the monitor's report-on signal
)

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
	kind    MsgKind
	from    *Node
	handler func(from *Node, m Message)
}

// NewDispatcher creates a dispatcher bound to n.
func NewDispatcher(n *Node) *Dispatcher {
	d := &Dispatcher{node: n}
	n.SetRecvHandler(d.dispatch)
	return d
}

// find returns the index of the (kind, from) route, or -1.
func (d *Dispatcher) find(kind MsgKind, from *Node) int {
	for i := range d.routes {
		if d.routes[i].from == from && d.routes[i].kind == kind {
			return i
		}
	}
	return -1
}

// Handle registers a handler for messages of the given kind from any
// sender. Registering a duplicate kind is an error.
func (d *Dispatcher) Handle(kind MsgKind, h func(from *Node, m Message)) error {
	if d.find(kind, nil) >= 0 {
		return fmt.Errorf("rdma: node %s: handler for kind %d already registered", d.node.name, kind)
	}
	d.routes = append(d.routes, route{kind: kind, handler: h})
	return nil
}

// HandleFrom registers a handler for messages of the given kind sent by
// the specific node. Sender-scoped handlers take precedence over Handle's
// catch-all for the same kind.
func (d *Dispatcher) HandleFrom(kind MsgKind, from *Node, h func(from *Node, m Message)) error {
	if from == nil {
		return fmt.Errorf("rdma: node %s: HandleFrom requires a sender", d.node.name)
	}
	if d.find(kind, from) >= 0 {
		return fmt.Errorf("rdma: node %s: handler for kind %d from %s already registered", d.node.name, kind, from.name)
	}
	d.routes = append(d.routes, route{kind: kind, from: from, handler: h})
	return nil
}

// dispatch delivers msg to its route. A kind with no route is dropped; a
// real RNIC would complete the recv with a buffer the application
// ignores.
func (d *Dispatcher) dispatch(from *Node, msg Message) {
	// The handler runs after the scan: it may register routes.
	var h func(from *Node, m Message)
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
		h(from, msg)
	}
}

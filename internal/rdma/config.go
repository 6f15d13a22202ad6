// Package rdma simulates an RDMA fabric with verbs-like semantics: nodes
// with NIC processing stations, registered memory regions, queue pairs, and
// one-sided READ / WRITE / FETCH_ADD / CMP_SWAP plus two-sided SEND verbs.
//
// The performance model encodes the two first-order facts Haechi depends
// on, both measured by the paper on ConnectX-3 hardware (Experiments 1A
// and 1B):
//
//   - a per-client initiator cap: one client saturates at ~400 KIOPS of
//     4 KB one-sided reads (~327 KIOPS two-sided), and
//   - a data-node aggregate cap: the server NIC sustains ~1570 KIOPS of
//     one-sided 4 KB operations, while the two-sided RPC path is limited
//     by the server CPU to ~430 KIOPS.
//
// Each cap is a FIFO single-server queueing station (sim.Station); an
// operation is charged a service weight at the initiator NIC and at the
// target NIC (and, for two-sided operations, at the target CPU). One-sided
// verbs never touch the target CPU — they are "silent", which is exactly
// the property that motivates Haechi.
package rdma

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/sim"
)

// DataIOSize is the payload size whose transfer costs weight 1.0 at a NIC
// station; the paper's experiments use 4 KB records throughout.
const DataIOSize = 4096

// Service weights of small verbs relative to a 4 KB transfer, and the
// control-path size cutoff.
const (
	// AtomicWeight is the service weight of an 8-byte FETCH_ADD or
	// CMP_SWAP.
	AtomicWeight = 0.25

	// MinVerbWeight floors the size-proportional weight of small WRITEs
	// and SENDs (doorbells, reports, token pushes are not free).
	MinVerbWeight = 0.05

	// SendRequestWeight is the NIC weight of the request half of a
	// two-sided operation (a small SEND that must still be processed by
	// the target NIC before reaching the CPU).
	SendRequestWeight = 0.15

	// controlSizeCutoff is the largest transfer, in bytes, that takes the
	// NIC's latency-priority path. Atomics and transfers at or below the
	// cutoff model verbs on dedicated control QPs: NIC arbitration
	// schedules them ahead of queued bulk transfers (their processing
	// time still consumes NIC capacity). Larger transfers queue FIFO.
	controlSizeCutoff = 512
)

// Config sets the fabric's performance model. NewDefaultConfig returns the
// values calibrated to the paper's Chameleon measurements.
type Config struct {
	// ClientOneSidedRate is the rate, in 4 KB one-sided operations per
	// second, at which a single client NIC can initiate verbs. This is the
	// paper's local capacity C_L (Fig. 6: ~400 KIOPS).
	ClientOneSidedRate float64

	// ClientTwoSidedRate is the per-client initiation rate for two-sided
	// operations (Fig. 6: ~327 KIOPS, about 20% below one-sided).
	ClientTwoSidedRate float64

	// ServerOneSidedRate is the aggregate rate at which the data node NIC
	// services incoming one-sided 4 KB operations. This is the paper's
	// global capacity C_G (Fig. 7: ~1570 KIOPS).
	ServerOneSidedRate float64

	// ServerTwoSidedRate is the aggregate rate at which the data node CPU
	// services two-sided requests (Fig. 7: ~430 KIOPS).
	ServerTwoSidedRate float64

	// PropagationDelay is the one-way wire latency between any two nodes.
	PropagationDelay sim.Time

	// Jitter is the fractional service-time jitter applied at every
	// station; it makes profiled capacity a distribution (the paper's
	// sigma) instead of a constant. 0 disables jitter.
	Jitter float64

	// FlowControlWindow is the per-QP credit window for bulk transfers:
	// at most this many data operations from one QP may be queued or in
	// service at the target NIC; the excess waits at the initiator. This
	// models InfiniBand's end-to-end credits, which keep server-side
	// queues shallow — the mechanism behind the paper's local-capacity
	// effects (Experiment 1C / Set 3: a late-period catch-up is limited
	// by the client rate C_L, not by draining a deep server backlog).
	// 0 disables flow control. Control verbs are exempt (own QPs).
	FlowControlWindow int

	// QPCacheSize models the RNIC's on-chip connection cache (ICM/QP
	// context cache): each node keeps at most this many QP contexts hot.
	// Touching a QP that is not cached evicts the least recently used
	// context and charges QPCacheMissPenalty extra service weight for the
	// fetch from host memory — the RDMAvisor/Storm scalability effect,
	// where per-QP service time degrades once the active QP count
	// exceeds the cache. 0 disables the model (infinite cache); the
	// default keeps it off so the calibrated small-testbed model is
	// unchanged.
	QPCacheSize int

	// QPCacheMissPenalty is the extra service weight (relative to a 4 KB
	// transfer) charged at a NIC for a QP-context cache miss.
	QPCacheMissPenalty float64
}

// NewDefaultConfig returns the performance model calibrated to the paper's
// testbed (Table I hardware, Figs. 6-7 measurements).
func NewDefaultConfig() Config {
	return Config{
		ClientOneSidedRate: 400e3,
		ClientTwoSidedRate: 327e3,
		ServerOneSidedRate: 1570e3,
		ServerTwoSidedRate: 430e3,
		PropagationDelay:   sim.Microsecond,
		Jitter:             0.01,
		FlowControlWindow:  64,
	}
}

// Scaled returns a copy of the config with every rate divided by factor.
// Scaling preserves every ratio the experiments depend on while letting
// tests run orders of magnitude faster.
func (c Config) Scaled(factor float64) Config {
	if factor <= 0 {
		factor = 1
	}
	s := c
	s.ClientOneSidedRate /= factor
	s.ClientTwoSidedRate /= factor
	s.ServerOneSidedRate /= factor
	s.ServerTwoSidedRate /= factor
	return s
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if v <= 0 {
			return fmt.Errorf("rdma: config field %s must be positive, got %v", name, v)
		}
		return nil
	}
	if err := check("ClientOneSidedRate", c.ClientOneSidedRate); err != nil {
		return err
	}
	if err := check("ClientTwoSidedRate", c.ClientTwoSidedRate); err != nil {
		return err
	}
	if err := check("ServerOneSidedRate", c.ServerOneSidedRate); err != nil {
		return err
	}
	if err := check("ServerTwoSidedRate", c.ServerTwoSidedRate); err != nil {
		return err
	}
	if c.PropagationDelay < 0 {
		return fmt.Errorf("rdma: PropagationDelay must be non-negative, got %v", c.PropagationDelay)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("rdma: Jitter must be in [0,1), got %v", c.Jitter)
	}
	if c.FlowControlWindow < 0 {
		return fmt.Errorf("rdma: FlowControlWindow must be non-negative, got %d", c.FlowControlWindow)
	}
	if c.QPCacheSize < 0 {
		return fmt.Errorf("rdma: QPCacheSize must be non-negative, got %d", c.QPCacheSize)
	}
	if c.QPCacheMissPenalty < 0 {
		return fmt.Errorf("rdma: QPCacheMissPenalty must be non-negative, got %v", c.QPCacheMissPenalty)
	}
	if c.QPCacheSize > 0 && c.QPCacheMissPenalty == 0 {
		return fmt.Errorf("rdma: QPCacheSize %d without a QPCacheMissPenalty has no effect; set a positive penalty", c.QPCacheSize)
	}
	return nil
}

// isControl reports whether a transfer of the given size takes the NIC's
// latency-priority path.
func isControl(size int) bool { return size <= controlSizeCutoff }

// sizeWeight converts a payload size to a NIC service weight relative to a
// 4 KB transfer, floored at MinVerbWeight.
func sizeWeight(size int) float64 {
	w := float64(size) / DataIOSize
	if w < MinVerbWeight {
		w = MinVerbWeight
	}
	return w
}

package rdma

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/sanitize"
)

// BackgroundJob injects closed-loop one-sided 4 KB I/O load at a server
// outside of any QoS control, reproducing the paper's Set-4 methodology:
// "each client node starts a background communication job [that] generates
// burst I/Os to the data node", silently consuming capacity that Haechi's
// adaptive capacity estimator must detect.
//
// Each job owns a private initiator node with per-client characteristics
// (a separate process with its own QP context), so starting and stopping a
// job changes only the load on the target server.
type BackgroundJob struct {
	fabric      *Fabric
	target      *Node
	initiator   *Node
	queue       *dataQueue
	window      int
	running     bool
	outstanding int
	completed   uint64

	// Pipeline-stage callbacks, bound once at construction. Background
	// I/Os all take the same three-stage path (initiator NIC, wire,
	// target scheduler) and each stage is FIFO, so the job needs no
	// per-operation state and issuing an I/O allocates nothing. The
	// initiator NIC stage completes through the private initiator's
	// dispatch, which resolves every tag to onInit: nothing else runs on
	// that NIC.
	onArriveFn func()
	onDoneFn   func()

	// san, when non-nil, checks the closed-loop window bound
	// 0 <= outstanding <= window (internal/sanitize).
	san *sanitize.Checker
}

// SetSanitizer installs the invariant checker consulted after every
// issue and completion. Nil (the default) disables the checks.
func (b *BackgroundJob) SetSanitizer(c *sanitize.Checker) { b.san = c }

// checkWindow asserts the closed-loop invariant. Callers nil-check san
// first so the sanitize-off path costs one pointer comparison.
func (b *BackgroundJob) checkWindow() {
	if b.outstanding < 0 || b.outstanding > b.window {
		b.san.Reportf("bg-window", int64(b.initiator.k.Now()),
			"background job %s: outstanding %d outside [0, %d]",
			b.initiator.name, b.outstanding, b.window)
	}
}

// NewBackgroundJob creates a stopped job that keeps window one-sided reads
// outstanding against target while running.
func NewBackgroundJob(f *Fabric, name string, target *Node, window int) (*BackgroundJob, error) {
	if target == nil || target.kind != ServerNode {
		return nil, fmt.Errorf("rdma: background job %q: target must be a server node", name)
	}
	if window <= 0 {
		return nil, fmt.Errorf("rdma: background job %q: window must be positive, got %d", name, window)
	}
	initiator, err := f.addNode("bg/"+name, ClientNode)
	if err != nil {
		return nil, err
	}
	// Background initiators are an injection mechanism, not topology:
	// remove them from the public node list so experiments iterate only
	// real cluster nodes.
	f.nodes = f.nodes[:len(f.nodes)-1]
	b := &BackgroundJob{
		fabric:    f,
		target:    target,
		initiator: initiator,
		queue:     newDataQueue(nil),
		window:    window,
	}
	initiator.nic.SetDispatch(func(uint32) { b.onInit() })
	b.onArriveFn = b.onArrive
	b.onDoneFn = b.onDone
	return b, nil
}

// Start begins (or resumes) injecting load.
func (b *BackgroundJob) Start() {
	if b.running {
		return
	}
	b.running = true
	for b.outstanding < b.window {
		b.issue()
	}
}

// Stop ceases issuing new I/Os; in-flight ones drain naturally.
func (b *BackgroundJob) Stop() { b.running = false }

// Completed returns the number of background I/Os finished so far.
func (b *BackgroundJob) Completed() uint64 { return b.completed }

func (b *BackgroundJob) issue() {
	b.outstanding++
	if b.san != nil {
		b.checkWindow()
	}
	b.initiator.nic.SubmitTagged(1, 0)
}

// onInit: the initiator NIC transmitted one background I/O; cross the
// wire. Background initiators share the target's shard (the cluster's
// assignment pins "bg/"-prefixed nodes there), so the hop is a plain
// same-kernel schedule even in a sharded run.
func (b *BackgroundJob) onInit() {
	// onArrive enqueues a record of its own rather than popping a FIFO, so
	// a storm-jittered arrival needs no ordering horizon here.
	b.initiator.k.Schedule(b.fabric.cfg.PropagationDelay+b.fabric.wireExtra(b.initiator.k), b.onArriveFn)
}

// onArrive: the I/O reached the target; queue it at the round-robin
// scheduler as a raw unit-weight operation. The record comes from the
// target's freelist (the shared kernel's) and the scheduler returns it
// there after service.
func (b *BackgroundJob) onArrive() {
	op := b.target.pool.get(false)
	op.kind = opFunc
	op.cb = b.onDoneFn
	b.target.sched.enqueue(b.queue, op)
}

// onDone: the target serviced the I/O and the completion propagated back.
func (b *BackgroundJob) onDone() {
	b.outstanding--
	b.completed++
	if b.san != nil {
		b.checkWindow()
	}
	if b.running {
		b.issue()
	}
}

package rdma

// ExecProfile attributes executed fabric work to event kinds and
// pipeline stages, one profile per shard (one total when unsharded).
// The counters increment inside the same callbacks that execute the
// work, on the owning node's kernel — single-writer per shard, no
// locks — and they are exactly as deterministic as the event sequence:
// identical with observability on or off
// (recording adds no fabric events). They are the measurement half of
// profile-driven kernel optimization: a run's Results rank which
// stations, stages, and verb kinds actually executed the most work, so
// hot-path effort can follow real counts rather than guesses.
//
// Per-kind counters count target-side executions (the memory-effect or
// hand-off instant); per-stage counters count stage completions along
// the pipeline, so e.g. InitNICDone/WireArrivals expose how much
// initiator-NIC and wire traffic a workload generated regardless of
// which verbs it used.
type ExecProfile struct {
	// Executed operations by kind, counted where the effect applies:
	// the target's shard for remote verbs, the initiator's for
	// loopbacks, the hosting node's for injected opFuncs.
	Reads        uint64
	Writes       uint64
	FetchAdds    uint64
	CompareSwaps uint64
	Sends        uint64
	Funcs        uint64

	// Pipeline-stage completion counts.
	CreditGrants    uint64 // flow-control credits granted at transmit
	InitNICDone     uint64 // initiator-NIC service completions (both classes)
	WireArrivals    uint64 // wire arrivals at the target
	SchedDispatches uint64 // round-robin scheduler dispatches
	Deliveries      uint64 // completion deliveries at the initiator
	Loopbacks       uint64 // loopback serves (single-NIC path)
	MailboxPosts    uint64 // cross-shard mailbox messages posted

	// QP connection-cache behaviour (Config.QPCacheSize); both zero when
	// the model is disabled. A miss charges QPCacheMissPenalty extra
	// service weight at the touching NIC. Omitted from JSON when zero so
	// cache-off Results stay byte-identical to pre-cache goldens.
	QPCacheHits   uint64 `json:",omitempty"`
	QPCacheMisses uint64 `json:",omitempty"`
}

// countKind tallies one executed operation of kind k.
func (p *ExecProfile) countKind(k opKind) {
	switch k {
	case opRead:
		p.Reads++
	case opWrite:
		p.Writes++
	case opFetchAdd:
		p.FetchAdds++
	case opSend:
		p.Sends++
	case opFunc:
		p.Funcs++
	}
}

// Add folds another profile into p (used to merge per-shard profiles
// in shard order).
func (p *ExecProfile) Add(o *ExecProfile) {
	p.Reads += o.Reads
	p.Writes += o.Writes
	p.FetchAdds += o.FetchAdds
	p.CompareSwaps += o.CompareSwaps
	p.Sends += o.Sends
	p.Funcs += o.Funcs
	p.CreditGrants += o.CreditGrants
	p.InitNICDone += o.InitNICDone
	p.WireArrivals += o.WireArrivals
	p.SchedDispatches += o.SchedDispatches
	p.Deliveries += o.Deliveries
	p.Loopbacks += o.Loopbacks
	p.MailboxPosts += o.MailboxPosts
	p.QPCacheHits += o.QPCacheHits
	p.QPCacheMisses += o.QPCacheMisses
}

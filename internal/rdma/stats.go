package rdma

import "fmt"

// Stats counts the verbs a node initiated or was targeted by. Which
// region a one-sided verb landed on is counted per region (Landed).
type Stats struct {
	// Initiator-side counters.
	Reads        uint64
	Writes       uint64
	FetchAdds    uint64
	CompareSwaps uint64
	SendsSent    uint64
	BytesRead    uint64
	BytesWritten uint64

	// Target-side counters.
	OneSidedTargeted uint64
	SendsReceived    uint64
}

// Add returns the counter-wise sum s + other, e.g. over the data nodes of
// a multi-server cluster.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		Reads:            s.Reads + other.Reads,
		Writes:           s.Writes + other.Writes,
		FetchAdds:        s.FetchAdds + other.FetchAdds,
		CompareSwaps:     s.CompareSwaps + other.CompareSwaps,
		SendsSent:        s.SendsSent + other.SendsSent,
		BytesRead:        s.BytesRead + other.BytesRead,
		BytesWritten:     s.BytesWritten + other.BytesWritten,
		OneSidedTargeted: s.OneSidedTargeted + other.OneSidedTargeted,
		SendsReceived:    s.SendsReceived + other.SendsReceived,
	}
}

// Sub returns the counter-wise difference s - other; use it to measure a
// window between two snapshots.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Reads:            s.Reads - other.Reads,
		Writes:           s.Writes - other.Writes,
		FetchAdds:        s.FetchAdds - other.FetchAdds,
		CompareSwaps:     s.CompareSwaps - other.CompareSwaps,
		SendsSent:        s.SendsSent - other.SendsSent,
		BytesRead:        s.BytesRead - other.BytesRead,
		BytesWritten:     s.BytesWritten - other.BytesWritten,
		OneSidedTargeted: s.OneSidedTargeted - other.OneSidedTargeted,
		SendsReceived:    s.SendsReceived - other.SendsReceived,
	}
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d faa=%d cas=%d sends=%d recv=%d targeted=%d",
		s.Reads, s.Writes, s.FetchAdds, s.CompareSwaps, s.SendsSent, s.SendsReceived, s.OneSidedTargeted)
}

// Landed counts the one-sided verbs that landed on one region, by kind.
// A verb counts where its target's Stats.OneSidedTargeted counts it — at
// post time on a same-shard queue pair, at wire arrival on a cross-shard
// one — so over any window a node's regions' counts sum to its
// OneSidedTargeted. Haechi's token-management cost is what landed on the
// QoS region.
type Landed struct {
	Reads   uint64
	Writes  uint64
	Atomics uint64 // FETCH_ADDs and CMP_SWAPs
}

// count adds one verb of the given kind.
func (l *Landed) count(kind opKind) {
	switch kind {
	case opRead:
		l.Reads++
	case opWrite:
		l.Writes++
	default:
		l.Atomics++
	}
}

// Add returns the count-wise sum l + o.
func (l Landed) Add(o Landed) Landed {
	return Landed{l.Reads + o.Reads, l.Writes + o.Writes, l.Atomics + o.Atomics}
}

// Sub returns the count-wise difference l - o: the window between two
// snapshots.
func (l Landed) Sub(o Landed) Landed {
	return Landed{l.Reads - o.Reads, l.Writes - o.Writes, l.Atomics - o.Atomics}
}

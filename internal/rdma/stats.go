package rdma

import "fmt"

// Stats counts the verbs a node initiated or was targeted by. Haechi's
// "negligible token-management overhead" claim is quantified from these
// counters: the atomics, control writes, and sends attributable to QoS
// versus the data-path reads.
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

// Initiated returns the total number of verbs this node initiated.
func (s Stats) Initiated() uint64 {
	return s.Reads + s.Writes + s.FetchAdds + s.CompareSwaps + s.SendsSent
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

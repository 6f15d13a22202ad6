package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/haechi-qos/haechi/internal/sim"
)

// chromeEvent is one entry of the Chrome trace_event format, the JSON
// understood by Perfetto and chrome://tracing. Timestamps and durations
// are in microseconds (fractional, so nanosecond resolution survives).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func chromeUS(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// pidTable assigns stable integer pids to track names in order of first
// appearance (spans and events are visited in their deterministic
// recorded order, so the numbering is deterministic too).
type pidTable struct {
	ids   map[string]int
	names []string
	base  int // first assigned pid minus one (sharded export reserves low pids for shards)
}

func (p *pidTable) id(name string) int {
	if id, ok := p.ids[name]; ok {
		return id
	}
	if p.ids == nil {
		p.ids = make(map[string]int)
	}
	id := p.base + len(p.names) + 1 // pid 0 renders oddly in some viewers
	p.ids[name] = id
	p.names = append(p.names, name)
	return id
}

// WriteChromeTrace renders the recorder's retained timeline as Chrome
// trace_event JSON: spans as slices, protocol events as instant markers
// on one process track per actor ("monitor", "engine-3"). Each initiator
// node becomes a process track and each QP a thread within it; every
// data span emits one enclosing slice for the whole verb plus one nested
// slice per pipeline stage, so a burst tenant's widening target-queue
// slices are directly visible in Perfetto. Control spans emit a single
// slice.
//
// For a merged sharded recorder (MergeFlightRecorders over > 1 shard)
// the span layout changes: each shard becomes a process track
// ("shard-K", pid K+1) and each QP a named thread within it (QP ids are
// fabric-unique), so quantum-parallel shards render side by side and
// cross-shard verbs are visible as slices whose target lives on another
// track. Protocol events keep their per-actor tracks in both layouts.
func WriteChromeTrace(w io.Writer, fr *FlightRecorder) error {
	sharded := fr.Sharded()
	var pids pidTable
	if sharded {
		pids.base = fr.ShardCount() // reserve pids 1..shards for shard tracks
	}
	type threadKey struct{ pid, tid int }
	var threadMeta []chromeEvent
	seenThread := make(map[threadKey]bool)
	var events []chromeEvent
	for _, sp := range fr.Spans() {
		if sp.Kind != 0 {
			events = append(events, chromeEvent{
				Name: sp.Kind.String(),
				Cat:  "protocol",
				Ph:   "i",
				S:    "t",
				Ts:   chromeUS(sp.Posted),
				Pid:  pids.id(sp.Initiator),
				Args: map[string]any{"A": sp.A, "B": sp.B},
			})
			continue
		}
		var pid int
		tid := int(sp.QP)
		if sharded {
			pid = sp.Shard() + 1
			tk := threadKey{pid, tid}
			if !seenThread[tk] {
				seenThread[tk] = true
				threadMeta = append(threadMeta, chromeEvent{
					Name: "thread_name",
					Ph:   "M",
					Pid:  pid,
					Tid:  tid,
					Args: map[string]any{"name": sp.Initiator},
				})
			}
		} else {
			pid = pids.id(sp.Initiator)
		}
		cat := "data"
		if sp.Control {
			cat = "control"
		}
		events = append(events, chromeEvent{
			Name: sp.Op.String(),
			Cat:  cat,
			Ph:   "X",
			Ts:   chromeUS(sp.Posted),
			Dur:  chromeUS(sp.End() - sp.Posted),
			Pid:  pid,
			Tid:  tid,
			Args: map[string]any{"span": sp.ID, "target": sp.Target},
		})
		if sp.Control {
			continue
		}
		stages := []struct {
			name     string
			from, to sim.Time
		}{
			{"credit-wait", sp.Posted, sp.Credit},
			{"init-nic", sp.Credit, sp.InitDone},
			{"wire", sp.InitDone, sp.Arrived},
			{"target-queue", sp.Arrived, sp.Service},
			{"target-service", sp.Service, sp.Served},
			{"deliver", sp.Served, sp.Done},
		}
		for _, st := range stages {
			if st.from < 0 || st.to < 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: st.name,
				Cat:  "stage",
				Ph:   "X",
				Ts:   chromeUS(st.from),
				Dur:  chromeUS(st.to - st.from),
				Pid:  pid,
				Tid:  tid,
			})
		}
	}
	meta := make([]chromeEvent, 0, fr.ShardCount()+len(pids.names)+len(threadMeta))
	if sharded {
		for s := 0; s < fr.ShardCount(); s++ {
			meta = append(meta, chromeEvent{
				Name: "process_name",
				Ph:   "M",
				Pid:  s + 1,
				Args: map[string]any{"name": fmt.Sprintf("shard-%d", s)},
			})
		}
	}
	for i, name := range pids.names {
		meta = append(meta, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  pids.base + i + 1,
			Args: map[string]any{"name": name},
		})
	}
	meta = append(meta, threadMeta...)
	return json.NewEncoder(w).Encode(chromeTrace{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ns",
	})
}

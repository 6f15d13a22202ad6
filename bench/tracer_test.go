package bench

import (
	"encoding/json"
	"os"
	"time"
)

// tracer records harness-side spans around every call the traced pass
// makes into a layer. Spans stay in memory and are written once, as
// Chrome trace_event JSON, when the benchmark ends. A nil tracer
// records nothing: the blind pass runs with tracing off.
type tracer struct {
	t0    time.Time
	spans []hspan
}

type hspan struct {
	name       string
	start, end time.Duration
	parent     int // span id, 0 = root
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (1-based).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, hspan{name: name, start: time.Since(t.t0), parent: parent})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.t0)
}

// write stores the spans as complete ("X") trace events; chrome://tracing
// and Perfetto nest them by time, and args carry the explicit parent.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i + 1, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventKind distinguishes the two span events a Tracer receives.
type EventKind int

// Span event kinds.
const (
	// SpanStart is emitted when a span begins.
	SpanStart EventKind = iota
	// SpanEnd is emitted when a span ends; Duration is set.
	SpanEnd
)

// String names the kind for trace output.
func (k EventKind) String() string {
	if k == SpanStart {
		return "start"
	}
	return "end"
}

// Event is one span boundary delivered to tracers. SpanID ties the start and
// end of one span together; IDs are unique within a registry.
type Event struct {
	Kind     EventKind
	SpanID   uint64
	Name     string
	Time     time.Time
	Duration time.Duration // SpanEnd only
	// Attrs carries span attributes; start and end may carry different keys.
	// Tracers must not mutate the map.
	Attrs map[string]any
}

// Tracer receives span events. Implementations must be safe for concurrent
// Emit calls; events for one span are ordered (start before end) but events
// of different spans interleave. Tracers registered on a registry are invoked
// in registration order.
type Tracer interface {
	Emit(Event)
}

// AddTracer registers a tracer; subsequent spans emit to it. Tracers fire in
// registration order.
func (r *Registry) AddTracer(t Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var next []Tracer
	if cur := r.tracers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, t)
	r.tracers.Store(&next)
}

// Span is an in-flight traced operation. A nil *Span (returned when no tracer
// is registered) is valid and End on it is a no-op. StartSpan and End take
// their attributes as a function (nil for none) that is called only when a
// tracer will receive them, so instrumentation sites pay one atomic load and
// build nothing when tracing is off.
type Span struct {
	r     *Registry
	id    uint64
	name  string
	start time.Time
}

// StartSpan begins a span and emits SpanStart to every tracer. When no tracer
// is registered it returns nil, which End handles.
func (r *Registry) StartSpan(name string, attrs func() map[string]any) *Span {
	trs := r.tracers.Load()
	if trs == nil || len(*trs) == 0 {
		return nil
	}
	sp := &Span{r: r, id: r.spanSeq.Add(1), name: name, start: time.Now()}
	ev := Event{Kind: SpanStart, SpanID: sp.id, Name: name, Time: sp.start}
	if attrs != nil {
		ev.Attrs = attrs()
	}
	for _, t := range *trs {
		t.Emit(ev)
	}
	return sp
}

// End finishes the span and emits SpanEnd with the elapsed duration. Safe on
// a nil span.
func (sp *Span) End(attrs func() map[string]any) {
	if sp == nil {
		return
	}
	trs := sp.r.tracers.Load()
	if trs == nil {
		return
	}
	now := time.Now()
	ev := Event{Kind: SpanEnd, SpanID: sp.id, Name: sp.name, Time: now, Duration: now.Sub(sp.start)}
	if attrs != nil {
		ev.Attrs = attrs()
	}
	for _, t := range *trs {
		t.Emit(ev)
	}
}

// JSONLTracer writes one JSON object per span event — the trace format behind
// the CLIs' -trace flags. Lines are serialized under a mutex so concurrent
// spans never interleave bytes.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer creates a tracer writing JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// jsonlEvent is the serialized form; attrs flatten into the object via the
// Attrs map field (encoding/json writes map keys in sorted order, keeping
// lines diffable).
type jsonlEvent struct {
	Ev     string         `json:"ev"`
	Span   uint64         `json:"span"`
	Name   string         `json:"name"`
	TimeUS int64          `json:"ts_us"`
	DurUS  int64          `json:"dur_us,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Emit implements Tracer.
func (t *JSONLTracer) Emit(ev Event) {
	line, err := json.Marshal(jsonlEvent{
		Ev:     ev.Kind.String(),
		Span:   ev.SpanID,
		Name:   ev.Name,
		TimeUS: ev.Time.UnixMicro(),
		DurUS:  ev.Duration.Microseconds(),
		Attrs:  ev.Attrs,
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(line, '\n')); err != nil {
		t.err = err
	}
}

// Err returns the first write or marshal error, after which Emit drops events.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

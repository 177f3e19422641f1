package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordTracer appends every event it receives, tagged with its own name, to
// a shared log — the fixture for hook-ordering assertions.
type recordTracer struct {
	name string
	mu   *sync.Mutex
	log  *[]string
}

func (t recordTracer) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*t.log = append(*t.log, t.name+":"+ev.Kind.String()+":"+ev.Name)
}

// TestTracerOrdering: tracers fire in registration order for every event,
// and a span's start precedes its end.
func TestTracerOrdering(t *testing.T) {
	r := New()
	var mu sync.Mutex
	var log []string
	r.AddTracer(recordTracer{name: "first", mu: &mu, log: &log})
	r.AddTracer(recordTracer{name: "second", mu: &mu, log: &log})

	sp := r.StartSpan("op", func() map[string]any { return map[string]any{"k": 1} })
	if sp == nil {
		t.Fatal("StartSpan returned nil with tracers registered")
	}
	sp.End(nil)

	want := []string{"first:start:op", "second:start:op", "first:end:op", "second:end:op"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

// TestNoTracerIsFree: with no tracer registered StartSpan returns nil and
// End on the nil span is a no-op.
func TestNoTracerIsFree(t *testing.T) {
	r := New()
	sp := r.StartSpan("op", nil)
	if sp != nil {
		t.Fatal("StartSpan should return nil with no tracers")
	}
	sp.End(nil) // must not panic
}

// TestNoTracerBuildsNoAttributes: with no tracer registered a span site
// neither calls its attribute functions nor allocates, whatever they would
// have rendered.
func TestNoTracerBuildsNoAttributes(t *testing.T) {
	r := New()
	built := 0
	sql := strings.Repeat("x", 100)
	allocs := testing.AllocsPerRun(100, func() {
		sp := r.StartSpan("op", func() map[string]any { built++; return map[string]any{"sql": sql + ";"} })
		sp.End(func() map[string]any { built++; return map[string]any{"created": built} })
	})
	if built != 0 || allocs != 0 {
		t.Errorf("no-tracer span built attributes %d times, %.0f allocs/run; want 0, 0", built, allocs)
	}
}

// TestJSONLTracer: events serialize one JSON object per line with matching
// span IDs and a duration on the end event.
func TestJSONLTracer(t *testing.T) {
	r := New()
	var sb strings.Builder
	tr := NewJSONLTracer(&sb)
	r.AddTracer(tr)

	sp := r.StartSpan("tune", func() map[string]any { return map[string]any{"queries": 3} })
	time.Sleep(time.Millisecond)
	sp.End(func() map[string]any { return map[string]any{"created": 2} })
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	var start, end map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &start); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &end); err != nil {
		t.Fatal(err)
	}
	if start["ev"] != "start" || end["ev"] != "end" || start["name"] != "tune" {
		t.Errorf("events = %v / %v", start, end)
	}
	if start["span"] != end["span"] {
		t.Errorf("span ids differ: %v vs %v", start["span"], end["span"])
	}
	if end["dur_us"].(float64) < 1000 {
		t.Errorf("end duration %v, want >= 1ms", end["dur_us"])
	}
	if start["attrs"].(map[string]any)["queries"].(float64) != 3 {
		t.Errorf("start attrs = %v", start["attrs"])
	}
}

// TestConcurrentSpans races spans from many goroutines through one JSONL
// tracer; every line must stay a complete JSON object (run under -race).
func TestConcurrentSpans(t *testing.T) {
	r := New()
	var sb safeBuilder
	tr := NewJSONLTracer(&sb)
	r.AddTracer(tr)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := r.StartSpan("op", func() map[string]any { return map[string]any{"w": w} })
				sp.End(nil)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 8*50*2 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50*2)
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

// safeBuilder is a mutex-guarded strings.Builder: JSONLTracer serializes its
// own writes, but the final read races the last Write without this.
type safeBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *safeBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *safeBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

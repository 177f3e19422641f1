package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req; a
// child names the span that caused it in Parent (0 for a root). Children
// that replay a layer outside the daemon (the repo's code is not changed by
// this benchmark) do not nest in time inside their parent; self time is
// therefore computed from the Parent links, not from interval overlap.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code path serves traced and untraced passes.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a span and returns its ID and duration. With a nil tracer
// it only times.
func (t *tracer) do(name string, parent, req int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	if t == nil {
		return 0, end.Sub(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id, end.Sub(start)
}

// selfTimes returns, per span name, each span's duration minus the summed
// durations of its direct children, in microseconds.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// write stores the spans as JSON lines under perfbench/out.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

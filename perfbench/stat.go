package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// measurement is one reported metric value. N is the number of samples the
// value summarizes (1 for totals and exact counts).
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is the outcome of one workload run in one mode.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	// Checks lists the correctness checks that ran, each with its outcome.
	Checks []check `json:"checks"`
	// Notes are lines of detail behind the metrics (the ladder's steps).
	Notes []string `json:"notes,omitempty"`
}

type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

func newResult(workload string, trace bool, seed int64, seconds float64) *result {
	return &result{Workload: workload, Trace: trace, Seed: seed, Seconds: seconds,
		Correct: true, Metrics: make(map[string]measurement)}
}

// set records a metric; the unit comes from the dictionary so a misspelt
// name fails loudly instead of inventing a metric.
func (r *result) set(name string, v float64, n int) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	d, ok := defByName(defs, name)
	if !ok {
		panic("perfbench: metric " + name + " is not in the dictionary")
	}
	r.Metrics[name] = measurement{Value: v, Unit: d.Unit, N: n}
}

func (r *result) check(name string, ok bool, note string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Note: note})
	if !ok {
		r.Correct = false
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// opSample is one completed operation: when it completed, as an offset
// from the start of the measured phase, and how long it took.
type opSample struct {
	at time.Duration
	ms float64
}

// quiet is what the quiet windows of a measured phase say about it.
type quiet struct {
	p50ms, p95ms, perSec float64
	windows              int
}

// Quantiles over windows: the low decile of the per-window latencies and
// the high decile of the per-window rates.
const (
	quietLow  = 0.10
	quietHigh = 0.90
)

// quietWindows cuts the phase into windows of length win, computes median
// latency, p95 latency and completions per second in each full window, and
// reports the low decile of the two latencies and the high decile of the
// rate over the windows.
//
// The sandbox's host runs this VM in two speeds, about 1.5x apart, in
// episodes of a few seconds (another tenant on the same core, by the look
// of it): completions per 0.5 s window of one serve_wide run read 372 372
// 404 ... 526 570. The disturbance is one-sided — it only ever slows the
// run — and which speed prevails changes from run to run, so a median over
// the whole run moves by 20 % between identical runs. The windows the
// neighbour left alone are the ones that measure the program, and a decile
// needs only a tenth of the run to be left alone. A change to the program
// moves every window, quiet ones included, so it shows in full.
func quietWindows(samples []opSample, win, total time.Duration) quiet {
	n := int(total / win)
	lat := make([][]float64, n)
	for _, s := range samples {
		if w := int(s.at / win); w < n {
			lat[w] = append(lat[w], s.ms)
		}
	}
	var p50s, p95s, rates []float64
	for _, l := range lat {
		if len(l) == 0 {
			continue
		}
		p50s = append(p50s, quantile(l, 0.50))
		p95s = append(p95s, quantile(l, 0.95))
		rates = append(rates, float64(len(l))/win.Seconds())
	}
	return quiet{
		p50ms:   quantile(p50s, quietLow),
		p95ms:   quantile(p95s, quietLow),
		perSec:  quantile(rates, quietHigh),
		windows: len(rates),
	}
}

// memMark is a point-in-time copy of the allocator's cumulative counters.
type memMark struct {
	bytes   uint64
	mallocs uint64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{bytes: m.TotalAlloc, mallocs: m.Mallocs}
}

// allocsPer runs fn n times on the calling goroutine and returns mallocs per
// call. Other goroutines must be idle for the count to mean anything.
func allocsPer(n int, fn func()) float64 {
	if n <= 0 {
		return 0
	}
	before := markMem()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(markMem().mallocs-before.mallocs) / float64(n)
}

// peakRSSMB reads the process's resident high-water mark from /proc. It
// falls back to the Go heap's Sys figure where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// rowsDigest is an order-insensitive summary of a result: the row count and
// the wrapping sum of per-row FNV-64a hashes.
type rowsDigest struct {
	rows int
	sum  uint64
}

func digestRows(rows [][]string) rowsDigest {
	d := rowsDigest{rows: len(rows)}
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, c := range r {
			for i := 0; i < len(c); i++ {
				h = (h ^ uint64(c[i])) * fnvPrime
			}
			h *= fnvPrime // column separator
		}
		d.sum += h
	}
	return d
}

// FNV-64a, written out because hash/fnv would allocate per column and the
// load generator shares two CPUs with the server it measures.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// settleHeap collects the garbage set-up left (the earlier timed set-ups'
// whole databases among it) so every run starts its measured phase with the
// collector's heap target derived from the same live heap. Without it the
// target depends on where in set-up the last cycle happened to end, and an
// allocation-heavy workload runs in a fast or a slow mode for the whole run.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}

package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// execFn sends statement i of the stream and reports whether the response
// was received and matched its reference. The load generator knows nothing
// else about the target, which is what lets the tests drive it against a
// stub.
type execFn func(ctx context.Context, conn, i int) bool

// loadResult is what one load phase observed.
type loadResult struct {
	latMS     []float64 // per completed request
	lateUS    []float64 // open loop: actual send minus due instant
	attempted int64
	failed    int64
	// samples are the closed loop's completions with their offsets.
	samples []opSample
	// inflightFirst/Second are the mean requests in flight seen at dispatch
	// over the first and second half of an open-loop step.
	inflightFirst, inflightSecond float64
}

// closedLoop keeps one request in flight on each of conns connections for
// dur: a caller that waits for its reply before sending the next. A slow
// target therefore receives less load; the figure it yields is capacity,
// not latency under a given arrival rate.
func closedLoop(ctx context.Context, conns, streamLen int, dur time.Duration, exec execFn) loadResult {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      loadResult
		start    = time.Now()
		deadline = start.Add(dur)
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var done []opSample
			var attempted, failed int64
			for i := c; ; i += conns {
				t0 := time.Now()
				if !t0.Before(deadline) || ctx.Err() != nil {
					break
				}
				ok := exec(ctx, c, i%streamLen)
				t1 := time.Now()
				attempted++
				if !ok {
					failed++
					continue
				}
				done = append(done, opSample{at: t1.Sub(start), ms: ms(t1.Sub(t0))})
			}
			mu.Lock()
			res.samples = append(res.samples, done...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	for _, s := range res.samples {
		res.latMS = append(res.latMS, s.ms)
	}
	return res
}

// poissonSchedule returns due offsets of independent arrivals at the given
// mean rate over dur, drawn from the seed.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends request k at schedule[k] whether or not earlier requests
// have been answered: independent users. Each request is timed from the
// instant it was due, so a stall of the target (or of this generator) is
// charged to every request that was due during it — there is no coordinated
// omission. Requests are spread round-robin over conns pipelined
// connections. offset rotates the part of the stream a step draws from.
func openLoop(ctx context.Context, conns, streamLen, offset int, schedule []time.Duration, exec execFn) loadResult {
	n := len(schedule)
	res := loadResult{attempted: int64(n)}
	lat := make([]float64, n) // < 0: failed
	late := make([]float64, n)
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		seenSum  [2]float64
		seenN    [2]int
	)
	start := time.Now()
	for k, due := range schedule {
		dueAt := start.Add(due)
		waitUntil(dueAt)
		sent := time.Now()
		late[k] = us(sent.Sub(dueAt))
		half := 0
		if k >= n/2 {
			half = 1
		}
		seenSum[half] += float64(inflight.Add(1))
		seenN[half]++
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ok := exec(ctx, k%conns, (offset+k)%streamLen)
			inflight.Add(-1)
			if ok {
				lat[k] = ms(time.Since(dueAt))
			} else {
				lat[k] = -1
			}
		}(k)
	}
	wg.Wait()
	for k := range lat {
		if lat[k] < 0 {
			res.failed++
			continue
		}
		res.latMS = append(res.latMS, lat[k])
	}
	res.lateUS = late
	for h := 0; h < 2; h++ {
		if seenN[h] > 0 {
			v := seenSum[h] / float64(seenN[h])
			if h == 0 {
				res.inflightFirst = v
			} else {
				res.inflightSecond = v
			}
		}
	}
	return res
}

// waitUntil sleeps while the due instant is far and busy-waits while it is
// near. Timers in the sandbox fire up to ~1 ms late (measured: a 50 us sleep
// returns after ~1.1 ms), far too coarse for arrival gaps of 100 us, so the
// generator spends one of the two CPUs spinning and the server and clients
// share the other. Yielding in the loop (runtime.Gosched) is worse, not
// kinder: a processor that always has the spinner to run never polls the
// network, which put 2 ms on the median of a bare loopback echo.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 3*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
		}
	}
}

// backlogGrew reports whether requests in flight kept rising through an
// open-loop step: the sign that the rate is beyond what the target
// sustains, even if the step ended before latencies showed it.
func (r loadResult) backlogGrew() bool {
	return r.inflightSecond > 1.5*r.inflightFirst+4
}

// withinShare is the share of attempted requests answered within limitMS;
// failed and refused requests count as misses.
func (r loadResult) withinShare(limitMS float64) float64 {
	if r.attempted == 0 {
		return 0
	}
	within := 0
	for _, l := range r.latMS {
		if l <= limitMS {
			within++
		}
	}
	return float64(within) / float64(r.attempted)
}

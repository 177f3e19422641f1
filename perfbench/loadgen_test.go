package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stubServer serves one request at a time, like a single worker behind a
// queue; request stallAt holds the worker for stall.
type stubServer struct {
	mu      sync.Mutex
	stallAt int
	stall   time.Duration
	service time.Duration
}

func (s *stubServer) exec(_ context.Context, _, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.service
	if i == s.stallAt {
		d = s.stall
	}
	time.Sleep(d)
	return true
}

func uniformSchedule(rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	gap := time.Duration(float64(time.Second) / rate)
	for t := gap; t < dur; t += gap {
		out = append(out, t)
	}
	return out
}

// TestOpenLoopChargesStallToQueuedRequests is the coordinated-omission
// check: a 200 ms stall of the target must show in the latency of every
// request that was due during it, because each is timed from its due
// instant and sent on schedule whether or not the target answers.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const rate = 200.0
	srv := &stubServer{stallAt: 40, stall: 200 * time.Millisecond}
	sched := uniformSchedule(rate, 600*time.Millisecond)
	r := openLoop(context.Background(), 2, len(sched), 0, sched, srv.exec)
	if r.failed != 0 || int(r.attempted) != len(sched) {
		t.Fatalf("attempted %d failed %d, want %d and 0", r.attempted, r.failed, len(sched))
	}
	slow := 0
	for _, l := range r.latMS {
		if l > 50 {
			slow++
		}
	}
	// Requests due in the first 150 ms of the stall wait more than 50 ms:
	// 30 at 200 req/s. A generator that waited for each reply before
	// sending the next would report one.
	if slow < 20 {
		t.Fatalf("%d requests saw more than 50 ms; the stall was not charged to the requests queued behind it", slow)
	}
	if got := quantile(r.latMS, 0.5); got > 20 {
		t.Fatalf("median %.1f ms: the stall should not reach the requests outside it", got)
	}

	// The same stall under a closed loop reaches one request per
	// connection: that is the omission the open loop exists to avoid.
	srv = &stubServer{stallAt: 40, stall: 200 * time.Millisecond, service: 2 * time.Millisecond}
	c := closedLoop(context.Background(), 2, 1000, 600*time.Millisecond, srv.exec)
	slow = 0
	for _, l := range c.latMS {
		if l > 50 {
			slow++
		}
	}
	if slow > 4 {
		t.Fatalf("closed loop reported %d slow requests, expected a couple", slow)
	}
}

// TestBacklogGrowthInvalidatesStep drives the stub beyond its capacity: the
// requests in flight keep rising and the step must be flagged.
func TestBacklogGrowthInvalidatesStep(t *testing.T) {
	srv := &stubServer{stallAt: -1, service: 4 * time.Millisecond} // 250 req/s at best
	sched := uniformSchedule(500, 600*time.Millisecond)
	over := openLoop(context.Background(), 2, len(sched), 0, sched, srv.exec)
	if !over.backlogGrew() {
		t.Fatalf("in flight %.1f then %.1f at twice the capacity: backlog growth not flagged", over.inflightFirst, over.inflightSecond)
	}
	sched = uniformSchedule(50, 600*time.Millisecond)
	under := openLoop(context.Background(), 2, len(sched), 0, sched, srv.exec)
	if under.backlogGrew() {
		t.Fatalf("in flight %.1f then %.1f at a fifth of the capacity: flagged", under.inflightFirst, under.inflightSecond)
	}
	if got := over.withinShare(20); got > 0.5 {
		t.Fatalf("within-limit share %.2f under overload, want most requests to miss", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(newRand(7), 1000, time.Second)
	b := poissonSchedule(newRand(7), 1000, time.Second)
	c := poissonSchedule(newRand(8), 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule differs at %d for one seed", i)
		}
		if same && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestQuartileSpreadMatchesPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got, ok := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; !ok || got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("spread %v ok %v, want %v", got, ok, want)
	}
	if _, ok := quartileSpread([]float64{1, 2, 3}); ok {
		t.Fatal("three values have no quartile spread")
	}
}

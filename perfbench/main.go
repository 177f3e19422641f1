// Command perfbench is the repo's one performance benchmark: four workloads,
// six end-to-end metrics with regression bounds, and a traced mode that
// reports each layer on the same statements. See README.md in this
// directory and BENCHMARK.json at the repo root.
//
//	go run ./perfbench -workload serve_hot -seed 1            end-to-end metrics
//	go run ./perfbench -workload serve_hot -seed 1 -trace 1   per-layer metrics
//	go run ./perfbench -workload all -seed 1 -out run.json    both, every workload
//	go run ./perfbench -compare a.json,a2.json b.json,b2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks databases and streams so all workloads run inside
	// go test; its numbers mean nothing.
	smoke bool
}

// share returns the given share of the run's measured length.
func (o options) share(x float64) time.Duration {
	return time.Duration(x * o.seconds * float64(time.Second))
}

const (
	// Set-up is timed several times per run and the median reported: it is
	// a second or so of single-shot work, too noisy to bound otherwise. At
	// least setupReps repetitions, more (up to maxSetupReps) while they fit
	// in setupBudget seconds.
	setupReps    = 3
	maxSetupReps = 7
	setupBudget  = 4.0
	// lateShare invalidates an open-loop step whose generator's p99
	// lateness exceeds this share of the latency limit (1/4). The sandbox
	// deschedules the busy-waiting dispatcher for about a millisecond at
	// p99 whatever the rate, so an absolute 1 ms limit would void steps at
	// random; lateness is charged to the requests' latency either way.
	lateShare = 4
)

// outDir receives trace files; relative to the checkout root the benchmark
// is run from.
var outDir = "perfbench/out"

// repeatSetup times setup the number of times the constants above ask for
// (once in traced and smoke runs) and returns the times in seconds. Before
// each repetition drop releases what the previous one built and the heap is
// settled, so every repetition starts from the same state and the garbage of
// one does not count towards the next one's peak memory.
func repeatSetup(o options, setup func() error, drop func()) ([]float64, error) {
	var times []float64
	reps := 1
	for r := 0; r < reps; r++ {
		drop()
		settleHeap()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r == 0 && !o.trace && !o.smoke {
			reps = min(maxSetupReps, max(setupReps, int(setupBudget/times[0])))
		}
	}
	settleHeap()
	return times, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func runWorkload(name string, o options) (*result, error) {
	switch name {
	case "serve_hot":
		return runServe(serveHot, o)
	case "serve_wide":
		return runServe(serveWide, o)
	case "tune_offline":
		return runTune(tuneOffline, o)
	case "churn_onfly":
		return runChurn(churnOnFly, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, workloadNames())
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames())+" or all")
		seed     = flag.Int64("seed", 1, "seed of the statement stream")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		smoke    = flag.Bool("smoke", false, "tiny databases and streams (plumbing check only)")
		out      = flag.String("out", "", "also write the run as a JSON document to this file")
		calib    = flag.Bool("calibrate", false, "serve workloads: print open-loop latency at a grid of rates, -seconds per rate")
		compare  = flag.Bool("compare", false, "compare two sets of -out documents: -compare A.json[,A2.json...] B.json[,B2.json...]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail("usage: -compare A.json[,A2.json...] B.json[,B2.json...]")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *workload == "" || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	if *calib {
		sz, ok := map[string]serveSizing{"serve_hot": serveHot, "serve_wide": serveWide}[*workload]
		if !ok {
			fail("-calibrate needs -workload serve_hot or serve_wide")
		}
		if err := calibrateServe(sz, o); err != nil {
			fail(err.Error())
		}
		return
	}
	if *workload == "all" {
		if err := runAll(o, *out); err != nil {
			fail(err.Error())
		}
		return
	}
	res, err := runWorkload(*workload, o)
	if err != nil {
		fail(err.Error())
	}
	printResult(os.Stdout, res)
	if *out != "" {
		if err := writeDocument(*out, []*result{res}); err != nil {
			fail(err.Error())
		}
	}
	printContractLine(os.Stdout, res)
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}

// printResult lists every metric by name with its value, unit and the
// number of samples behind it, then the correctness checks.
func printResult(w io.Writer, r *result) {
	mode := "end-to-end, tracing off"
	defs := endToEnd
	if r.Trace {
		mode, defs = "per-layer, traced run", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  (%s)\n", r.Workload, r.Seed, r.Seconds, mode)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-38s MISSING\n", d.Name)
			continue
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s (%s)\n", verdict, c.Name, c.Note)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// printContractLine prints the one JSON object the driver reads: the last
// line of standard output.
func printContractLine(w io.Writer, r *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fail(err.Error())
	}
	fmt.Fprintln(w, string(b))
}

// document is the -out file: every run it holds, in order.
type document struct {
	Schema int       `json:"schema"`
	Runs   []*result `json:"runs"`
}

func writeDocument(path string, runs []*result) error {
	b, err := json.MarshalIndent(document{Schema: 1, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runAll runs every workload in both modes, each in a process of its own so
// peak_rss_mb and the allocator counters belong to that workload alone.
func runAll(o options, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var runs []*result
	bad := false
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			part := fmt.Sprintf("%s/%s.%d.json", outDir, w.Name, trace)
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace), "-out", part}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			outBytes, runErr := cmd.Output()
			if d, err := readDocument(part); err == nil {
				for _, r := range d.Runs {
					printResult(os.Stdout, r)
					runs = append(runs, r)
				}
			} else {
				os.Stdout.Write(outBytes)
			}
			fmt.Printf("  (%s -trace %d took %.1f s)\n\n", w.Name, trace, time.Since(t0).Seconds())
			if runErr != nil {
				bad = true
				fmt.Fprintf(os.Stderr, "perfbench: %s -trace %d: %v\n", w.Name, trace, runErr)
			}
		}
	}
	if out != "" {
		if err := writeDocument(out, runs); err != nil {
			return err
		}
	}
	if bad {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

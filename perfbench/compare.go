package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) gives them (the driver's definition).
// Fewer than four values have no spread to speak of; ok is then false.
func quartileSpread(xs []float64) (spread float64, ok bool) {
	if len(xs) < 4 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / med, true
}

// side collects, per workload and metric, the values of one set of runs.
type side map[string]map[string][]float64

// loadSides reads a comma-separated list of documents and returns the
// values of the untraced and of the traced runs.
func loadSides(files string) (e2e, layers side, err error) {
	e2e, layers = side{}, side{}
	for _, f := range strings.Split(files, ",") {
		d, err := readDocument(f)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range d.Runs {
			s := e2e
			if r.Trace {
				s = layers
			}
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], m.Value)
			}
		}
	}
	return e2e, layers, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians, the ratio B/A with its base, the bound and a verdict. A metric is
// "worse" when B's median is worse than A's by more than the bound, and
// "unresolved" when either side's own run-to-run spread exceeds the bound,
// in which case the runs cannot tell. It reports whether anything is worse.
func compareFiles(w io.Writer, filesA, filesB string) (bool, error) {
	a, ta, err := loadSides(filesA)
	if err != nil {
		return false, err
	}
	b, tb, err := loadSides(filesB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-13s %-16s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worseBy := (mb - ma) / ma
			if d.Better == "higher" {
				worseBy = (ma - mb) / ma
			}
			sa, okA := quartileSpread(va)
			sb, okB := quartileSpread(vb)
			verdict := "ok"
			switch {
			case (okA && sa > d.Bound) || (okB && sb > d.Bound):
				verdict = "unresolved"
			case worseBy > d.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-13s %-16s %12.4f %12.4f %9.4f %7.2f %8s %8s  %s (A n=%d, B n=%d, %s is better)\n",
				wl.Name, d.Name, ma, mb, mb/ma, d.Bound, fmtSpread(sa, okA), fmtSpread(sb, okB),
				verdict, len(va), len(vb), d.Better)
		}
	}

	// The exact per-layer counts explain a quality change; any difference
	// between the sides is a change of behaviour, not noise.
	for _, wl := range workloads {
		for _, name := range exactMetrics {
			va, vb := ta[wl.Name][name], tb[wl.Name][name]
			if len(va) == 0 || len(vb) == 0 || median(va) == median(vb) {
				continue
			}
			fmt.Fprintf(w, "%-13s %-34s A %.4f  B %.4f  changed (exact for one seed: compare runs of the same seed)\n",
				wl.Name, name, median(va), median(vb))
		}
	}
	return anyWorse, nil
}

func fmtSpread(s float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", s)
}

package oracle

import (
	"bytes"
	"fmt"
	"reflect"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/stats"
)

// Streaming differential oracle. The invariant of the statistics manager's
// one build path is bitwise identity: a statistic built block-at-a-time — at
// any block size, any partition cut, spilling or not, merging partials in
// any order — must be EXACTLY the statistic the single-pass reference
// (histogram.BuildMulti over one MultiColumnValues gather, called
// directly — never through the manager, which would compare the pipeline
// with itself) produces. This sweep checks the invariant at two levels: end
// to end through stats.Manager (block sizes × forced/disabled spilling,
// including the temp-file codec on the spill path), and at the histogram
// layer (random partition cuts, shuffled merge orders, and an explicit
// encode/decode roundtrip of every partial).

// streamSweepBlockSizes are the block sizes the manager-level sweep covers:
// degenerate (1), prime and non-dividing (7), typical (64), and larger than
// most oracle tables (4096, one block per partition).
var streamSweepBlockSizes = []int{1, 7, 64, 4096}

// streamSweepTargets are the statistics the sweep builds: a date column with
// heavy duplication, a skewed multi-column pair, and a NULL-bearing numeric
// column (injectNulls targets unindexed numerics like c_acctbal).
var streamSweepTargets = []struct {
	table string
	cols  []string
}{
	{"orders", []string{"o_orderdate"}},
	{"lineitem", []string{"l_quantity", "l_partkey"}},
	{"customer", []string{"c_acctbal"}},
}

// StreamReport summarizes one streaming-sweep run.
type StreamReport struct {
	// Builds counts manager builds compared against references.
	Builds int
	// MergeOrders counts shuffled histogram-level merge orders checked.
	MergeOrders int
	// Roundtrips counts partials pushed through the spill codec.
	Roundtrips int
	// Findings lists every violation.
	Findings []Finding
}

// singlePassReference is the independent reference the build oracles compare
// against: histogram.BuildMulti (the harness's MaxDiff, default buckets) over
// one MultiColumnValues gather, called directly. It returns the gathered
// tuples and the statistic data.
func (h *Harness) singlePassReference(table string, cols []string) ([][]catalog.Datum, *histogram.MultiColumn, error) {
	td, err := h.DB.Table(table)
	if err != nil {
		return nil, nil, err
	}
	tuples, err := td.MultiColumnValues(cols)
	if err != nil {
		return nil, nil, err
	}
	mc, err := histogram.BuildMulti(histogram.MaxDiff, cols, tuples, 0)
	return tuples, mc, err
}

// RunStreamingSweep executes the streaming differential sweep on the
// harness's database. The harness's own manager is untouched: every
// configuration gets a fresh manager over the shared (read-only for this
// oracle) data.
func (h *Harness) RunStreamingSweep() (*StreamReport, error) {
	rep := &StreamReport{}
	for _, tgt := range streamSweepTargets {
		tuples, refData, err := h.singlePassReference(tgt.table, tgt.cols)
		if err != nil {
			return nil, fmt.Errorf("reference build %s%v: %w", tgt.table, tgt.cols, err)
		}

		// Manager level: block sizes × spill forced on/off.
		for _, bs := range streamSweepBlockSizes {
			for _, budget := range []int64{0, 1} {
				m := stats.NewManager(h.DB, histogram.MaxDiff, 0)
				m.SetObsRegistry(h.Reg)
				if err := m.SetStreamingBuild(stats.StreamConfig{
					BlockSize:      bs,
					PartitionRows:  64,
					MemBudgetBytes: budget,
				}); err != nil {
					return nil, err
				}
				st, err := m.Create(tgt.table, tgt.cols)
				if err != nil {
					return nil, fmt.Errorf("streaming build %s%v block=%d budget=%d: %w",
						tgt.table, tgt.cols, bs, budget, err)
				}
				rep.Builds++
				if !reflect.DeepEqual(st.Data, refData) {
					rep.Findings = append(rep.Findings, Finding{
						Oracle: "streaming",
						Seed:   h.Opts.Seed,
						Detail: fmt.Sprintf("%s%v: streamed histogram (block=%d budget=%d) differs from single-pass build",
							tgt.table, tgt.cols, bs, budget),
					})
				}
			}
		}

		// Histogram level: random partition cuts, codec roundtrip of every
		// partial, merge in shuffled order — still bitwise-identical.
		for round := 0; round < 4; round++ {
			var parts []*histogram.Partial
			b, err := histogram.NewPartialBuilder(tgt.cols)
			if err != nil {
				return nil, err
			}
			for pos := 0; pos < len(tuples); {
				n := 1 + h.rng.Intn(97)
				if pos+n > len(tuples) {
					n = len(tuples) - pos
				}
				if err := b.AddBlock(tuples[pos : pos+n]); err != nil {
					return nil, err
				}
				pos += n
				if h.rng.Intn(3) == 0 {
					parts = append(parts, b.Finish())
				}
			}
			if b.Rows() > 0 || len(parts) == 0 {
				parts = append(parts, b.Finish())
			}
			// Every partial takes a spill-codec roundtrip.
			for i, p := range parts {
				var buf bytes.Buffer
				if err := histogram.EncodePartial(&buf, p); err != nil {
					return nil, err
				}
				q, err := histogram.DecodePartial(&buf)
				if err != nil {
					return nil, err
				}
				rep.Roundtrips++
				if !reflect.DeepEqual(p, q) {
					rep.Findings = append(rep.Findings, Finding{
						Oracle: "streaming",
						Seed:   h.Opts.Seed,
						Detail: fmt.Sprintf("%s%v: partial %d changed across the spill codec roundtrip",
							tgt.table, tgt.cols, i),
					})
				}
				parts[i] = q
			}
			h.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			mc, err := histogram.MergePartials(histogram.MaxDiff, tgt.cols, parts, 0)
			if err != nil {
				return nil, err
			}
			rep.MergeOrders++
			if !reflect.DeepEqual(mc, refData) {
				rep.Findings = append(rep.Findings, Finding{
					Oracle: "streaming",
					Seed:   h.Opts.Seed,
					Detail: fmt.Sprintf("%s%v: shuffled merge of %d spilled partials differs from single-pass build",
						tgt.table, tgt.cols, len(parts)),
				})
			}
		}
	}
	return rep, nil
}

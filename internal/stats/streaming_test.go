package stats

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/storage"
)

// streamDB builds a database with one wider table ("s": int with dups and
// NULL-able float, string group, int) so streaming builds cross type and
// NULL handling, not just the minimal fixture.
func streamDB(t *testing.T, rows int) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("s",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.String},
		catalog.Column{Name: "c", Type: catalog.Int},
	)); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "s")
	for i := 0; i < rows; i++ {
		a := catalog.NewInt(int64(i % 23))
		if i%13 == 0 {
			a = catalog.NewNull(catalog.Int)
		}
		r := storage.Row{
			a,
			catalog.NewString(fmt.Sprintf("g%d", i%7)),
			catalog.NewInt(int64(i % 3)),
		}
		if err := td.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Punch holes so block scans must skip dead rows.
	var dead []int
	for id := 5; id < rows; id += 17 {
		dead = append(dead, id)
	}
	td.Delete(dead)
	return db
}

// spillFiles counts leftover spill temp files in dir.
func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// referenceStat is what every build is compared against: histogram.BuildMulti
// over the one-shot MultiColumnValuesSeq gather, called directly, never
// through the manager. It returns the data, the watermark and the creation
// cost the manager's statistic must carry.
func referenceStat(t *testing.T, db *storage.Database, kind histogram.Kind, buckets int, table string, cols []string) (*histogram.MultiColumn, int64, float64) {
	t.Helper()
	tuples, seq, err := mustTable(t, db, table).MultiColumnValuesSeq(cols)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := histogram.BuildMulti(kind, cols, tuples, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return mc, seq, histogram.BuildCostUnits(int64(len(tuples)), len(cols))
}

// TestBuildIdentity is the build path's invariant as one table: at every
// block size, partition cut and spill pattern, for single-column, multi-column
// and NULL-bearing statistics, Manager.Create produces exactly the BuildMulti
// reference, with the same watermark and creation cost.
func TestBuildIdentity(t *testing.T) {
	db := streamDB(t, 500)
	td := mustTable(t, db, "s")
	td.EnableDeltaLog(0)
	for i := 0; i < 3; i++ { // a non-zero watermark to carry
		if err := td.Insert(storage.Row{catalog.NewInt(99), catalog.NewString("g9"), catalog.NewInt(9)}); err != nil {
			t.Fatal(err)
		}
	}
	targets := []struct {
		name    string
		cols    []string
		kind    histogram.Kind
		buckets int
	}{
		{"single", []string{"c"}, histogram.EquiDepth, 8},
		{"multi", []string{"b", "c"}, histogram.MaxDiff, 0},
		{"nulls", []string{"a", "b", "c"}, histogram.MaxDiff, 0},
	}
	spillDir := t.TempDir()
	for _, tgt := range targets {
		want, wantSeq, wantCost := referenceStat(t, db, tgt.kind, tgt.buckets, "s", tgt.cols)
		for _, bs := range []int{1, 7, 64, 4096} {
			for _, partRows := range []int{1, 64, 0} { // 0 = the default cut
				for _, budget := range []int64{0, 1} { // 0 = never spill, 1 = spill every partial
					name := fmt.Sprintf("%s block=%d cut=%d budget=%d", tgt.name, bs, partRows, budget)
					m := NewManager(db, tgt.kind, tgt.buckets)
					reg := obs.New()
					m.SetObsRegistry(reg)
					if err := m.SetStreamingBuild(StreamConfig{
						BlockSize:      bs,
						PartitionRows:  partRows,
						MemBudgetBytes: budget,
						SpillDir:       spillDir,
					}); err != nil {
						t.Fatal(err)
					}
					got, err := m.Create("s", tgt.cols)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got.Data, want) {
						t.Errorf("%s: statistic differs from the BuildMulti reference", name)
					}
					if got.DeltaSeq != wantSeq {
						t.Errorf("%s: DeltaSeq=%d want %d", name, got.DeltaSeq, wantSeq)
					}
					if got.BuildCost != wantCost {
						t.Errorf("%s: BuildCost=%v want %v", name, got.BuildCost, wantCost)
					}
					if spilled := reg.Counter("stats.build.spills").Value() > 0; spilled != (budget > 0) {
						t.Errorf("%s: spilled=%v", name, spilled)
					}
				}
			}
		}
	}
	if n := spillFiles(t, spillDir); n != 0 {
		t.Errorf("%d spill files left behind", n)
	}
	if n := td.OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after the sweep", n)
	}
}

// TestStreamingSpillMetricsAndCleanup: a budget-bound build spills, reports
// it via the obs counters, and leaves no temp files behind.
func TestStreamingSpillMetricsAndCleanup(t *testing.T) {
	db := streamDB(t, 400)
	dir := t.TempDir()
	m := NewManager(db, histogram.MaxDiff, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	if err := m.SetStreamingBuild(StreamConfig{
		BlockSize:      16,
		PartitionRows:  50,
		MemBudgetBytes: 1,
		SpillDir:       dir,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("s", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("stats.build.full_scans").Value(); n != 1 {
		t.Errorf("full_scans=%d want 1", n)
	}
	if n := reg.Counter("stats.build.blocks").Value(); n == 0 {
		t.Error("no blocks counted")
	}
	if n := reg.Counter("stats.build.spills").Value(); n == 0 {
		t.Error("budget=1 build did not spill")
	}
	if n := reg.Counter("stats.build.spill_bytes").Value(); n == 0 {
		t.Error("spills reported but no spill bytes")
	}
	if n := reg.Gauge("stats.build.mem_peak_bytes").Value(); n <= 0 {
		t.Errorf("mem_peak_bytes=%d", n)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Errorf("%d spill files left after successful build", n)
	}
	if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after build", n)
	}
}

// streamFaultFixture returns a manager with small cuts and forced spilling
// into dir, ready for fault injection.
func streamFaultFixture(t *testing.T, db *storage.Database, dir string) *Manager {
	t.Helper()
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	if err := m.SetStreamingBuild(StreamConfig{
		BlockSize:      8,
		PartitionRows:  40,
		MemBudgetBytes: 1,
		SpillDir:       dir,
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStreamingSpillFaultInjection: injected spill write/read failures must
// abort the build as Transient and leave every piece of published state —
// catalog, epoch, accounting, temp dir, snapshot guards — untouched.
func TestStreamingSpillFaultInjection(t *testing.T) {
	sentinel := errors.New("injected spill fault")
	for _, op := range []string{"spill-write", "spill-read"} {
		t.Run(op, func(t *testing.T) {
			db := streamDB(t, 300)
			dir := t.TempDir()
			m := streamFaultFixture(t, db, dir)
			failOp := op
			m.SetFailpoint(func(ctx context.Context, fpOp string, id ID) error {
				if fpOp == failOp {
					return sentinel
				}
				return nil
			})
			epoch := m.Epoch()
			acc := m.Snapshot()
			_, err := m.Create("s", []string{"a", "b"})
			if err == nil {
				t.Fatal("build survived injected spill fault")
			}
			if !IsTransient(err) {
				t.Errorf("%s fault not classified transient: %v", op, err)
			}
			if !errors.Is(err, sentinel) {
				t.Errorf("injected sentinel lost: %v", err)
			}
			if m.Epoch() != epoch {
				t.Error("failed build bumped the epoch")
			}
			if got := m.Snapshot(); got != acc {
				t.Errorf("failed build changed accounting: %+v -> %+v", acc, got)
			}
			if m.Has(MakeID("s", []string{"a", "b"})) {
				t.Error("failed build published a statistic")
			}
			if n := spillFiles(t, dir); n != 0 {
				t.Errorf("%d spill files left after injected %s fault", n, op)
			}
			if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
				t.Errorf("OpenSnapshots=%d after injected %s fault", n, op)
			}
			// The fault must be recoverable: clearing it, the same build
			// succeeds and matches a plain build.
			m.SetFailpoint(nil)
			got, err := m.Create("s", []string{"a", "b"})
			if err != nil {
				t.Fatalf("retry after fault: %v", err)
			}
			want, _, _ := referenceStat(t, db, histogram.MaxDiff, 0, "s", []string{"a", "b"})
			if !reflect.DeepEqual(got.Data, want) {
				t.Error("post-fault retry differs from reference build")
			}
		})
	}
}

// TestStreamingCancelMidStream: cancelling a build between blocks — after
// partials have already spilled — must delete the spill files, release the
// block iterator's snapshot guard, and leave catalog/epoch/accounting
// untouched.
func TestStreamingCancelMidStream(t *testing.T) {
	db := streamDB(t, 400)
	dir := t.TempDir()
	m := streamFaultFixture(t, db, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks := 0
	m.SetFailpoint(func(fpCtx context.Context, op string, id ID) error {
		if op == "block" {
			blocks++
			// With BlockSize 8 and PartitionRows 40, block 20 is well past
			// several spilled partials.
			if blocks == 20 {
				cancel()
			}
		}
		return nil
	})
	epoch := m.Epoch()
	acc := m.Snapshot()
	_, _, err := m.EnsureCtx(ctx, "s", []string{"a", "b"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if blocks < 20 {
		t.Fatalf("build consumed only %d blocks; cancel point never reached", blocks)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Errorf("%d spill files left after cancel", n)
	}
	if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after cancel — snapshot guard leaked", n)
	}
	if m.Epoch() != epoch {
		t.Error("cancelled build bumped the epoch")
	}
	if got := m.Snapshot(); got != acc {
		t.Error("cancelled build changed accounting")
	}
	if m.Has(MakeID("s", []string{"a", "b"})) {
		t.Error("cancelled build published a statistic")
	}
	// The table must be fully writable again (guard released).
	if err := mustTable(t, db, "s").Insert(storage.Row{
		catalog.NewInt(1), catalog.NewString("z"), catalog.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingConcurrentBuildsAndFolds: full rebuilds, folding
// refreshes and DML hammer one table concurrently; run under -race this
// proves block scans and FoldMulti never interleave on shared state. The
// final refreshed statistic must equal a fresh reference build.
func TestStreamingConcurrentBuildsAndFolds(t *testing.T) {
	db := streamDB(t, 300)
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	if err := m.SetStreamingBuild(StreamConfig{
		BlockSize:      16,
		PartitionRows:  64,
		MemBudgetBytes: 4 << 10,
		SpillDir:       t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIncrementalMaintenance(FoldConfig{Enabled: true, MaxFoldFraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	id := MakeID("s", []string{"a"})
	if _, err := m.Create("s", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "s")
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				td.Insert(storage.Row{
					catalog.NewInt(int64(i % 11)),
					catalog.NewString("w"),
					catalog.NewInt(int64(g)),
				})
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := m.Refresh(id); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if s := m.Get(id); s != nil {
				_ = s.Data.Rows // read the published snapshot
			}
		}
	}()
	wg.Wait()
	if n := td.OpenSnapshots(); n != 0 {
		t.Fatalf("OpenSnapshots=%d after concurrent phase", n)
	}
	// One more refresh so the statistic reflects the final table state, then
	// compare against the single-pass reference.
	if err := m.Refresh(id); err != nil {
		t.Fatal(err)
	}
	got := m.Get(id)
	want, _, _ := referenceStat(t, db, histogram.MaxDiff, 0, "s", []string{"a"})
	if got.FoldedRows == 0 {
		// The last refresh rebuilt: must match exactly.
		if !reflect.DeepEqual(got.Data, want) {
			t.Error("final rebuild differs from reference")
		}
	} else if got.Data.Rows != want.Rows {
		// The last refresh folded: row counts still reconcile exactly.
		t.Errorf("folded rows=%d, reference rows=%d", got.Data.Rows, want.Rows)
	}
}

// TestStreamingPeakMemoryFlat: the tracked peak build memory must stay flat
// as the table grows 10x — the O(block + partition) bound the tentpole
// promises. The gauge is a deterministic estimate of retained bytes, so the
// gate is exact, not timing-dependent.
func TestStreamingPeakMemoryFlat(t *testing.T) {
	peak := func(rows int) int64 {
		db := streamDB(t, rows)
		m := NewManager(db, histogram.MaxDiff, 0)
		reg := obs.New()
		m.SetObsRegistry(reg)
		if err := m.SetStreamingBuild(StreamConfig{
			BlockSize:      64,
			PartitionRows:  256,
			MemBudgetBytes: 64 << 10,
			SpillDir:       t.TempDir(),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create("s", []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		return reg.Gauge("stats.build.mem_peak_bytes").Value()
	}
	small := peak(1_000)
	large := peak(10_000)
	if small <= 0 || large <= 0 {
		t.Fatalf("peaks not tracked: small=%d large=%d", small, large)
	}
	// 10x the rows must not move the peak past the budget headroom; allow 2x
	// for partition-boundary noise. (Unbudgeted, the peak would scale ~10x.)
	if large > 2*small && large > 80<<10 {
		t.Errorf("peak grew from %d to %d over 10x rows — not flat", small, large)
	}
}

// TestBuildAllocsBounded pins the PartialBuilder's buffer reuse: a
// single-column build allocates per partition cut and per merge level, never
// per row. Measured over these 60 k rows: 88 mallocs (one frequency list per
// cut and the merge levels; 230 when each cut also copied the partition into
// a second Datum buffer to sort it); one per row with a one-shot gather.
func TestBuildAllocsBounded(t *testing.T) {
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("big", catalog.Column{Name: "a", Type: catalog.Int})); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 60_000)
	for i := range rows {
		rows[i] = storage.Row{catalog.NewInt(int64(i * 7919 % 5003))}
	}
	if err := mustTable(t, db, "big").BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	id := MakeID("big", []string{"a"})
	allocs := testing.AllocsPerRun(5, func() {
		m.Drop(id)
		if _, err := m.Create("big", []string{"a"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Fatalf("Create over %d rows allocates %.0f objects; want < 100 (per cut with the buffer reused, not per row)", len(rows), allocs)
	}
}

// BenchmarkStreamingManagerBuild is the end-to-end budgeted build the
// statsbuild CI job watches with -benchmem: per-build allocations must track
// the block/partition bounds, not the table size.
func BenchmarkStreamingManagerBuild(b *testing.B) {
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("s",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.String},
	)); err != nil {
		b.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		b.Fatal(err)
	}
	td, err := db.Table("s")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if err := td.Insert(storage.Row{
			catalog.NewInt(int64(i % 100)),
			catalog.NewString(fmt.Sprintf("g%d", i%13)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	if err := m.SetStreamingBuild(StreamConfig{
		BlockSize:      512,
		PartitionRows:  4096,
		MemBudgetBytes: 256 << 10,
		SpillDir:       b.TempDir(),
	}); err != nil {
		b.Fatal(err)
	}
	id := MakeID("s", []string{"a", "b"})
	if _, err := m.Create("s", []string{"a", "b"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Refresh(id); err != nil {
			b.Fatal(err)
		}
	}
}

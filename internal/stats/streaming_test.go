package stats

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
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
	if _, err := td.Delete(func(storage.View) ([]int, error) { return dead, nil }); err != nil {
		t.Fatal(err)
	}
	return db
}

// referenceStat is what every build is compared against: histogram.BuildMulti
// over the one-shot MultiColumnValues gather, called directly, never through
// the manager. It returns the data and the build cost the manager's statistic
// must carry.
func referenceStat(t *testing.T, db *storage.Database, kind histogram.Kind, buckets int, table string, cols []string) (*histogram.MultiColumn, float64) {
	t.Helper()
	tuples, err := mustTable(t, db, table).MultiColumnValues(cols)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := histogram.BuildMulti(kind, cols, tuples, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return mc, histogram.BuildCostUnits(int64(len(tuples)), len(cols))
}

// identityTarget is one input of TestBuildIdentity: a statistic over a table,
// the histogram shape it is built with, and the rows the refresh step
// inserts (row(n) is the n-th).
type identityTarget struct {
	name    string
	db      *storage.Database
	table   string
	cols    []string
	kind    histogram.Kind
	buckets int
	// nulls marks a target whose leading column must carry NULLs, so the
	// input cannot quietly lose its NULL shape.
	nulls bool
	row   func(n int) storage.Row
}

// identityTargets lists the sweep's inputs. The streamDB table crosses
// String, duplicate and NULL-bearing Int columns over a table with dead
// rows. The TPC-D databases (datagen at scale 0.05 — lineitem 300 rows,
// orders 75, customer 7 — at two seeds and skews z = 0, 2, 4 and MIX) add a
// Date column with heavy duplication, a Float × Int multi-column statistic
// and a NULL-bearing Float: every fifth row of c_acctbal and l_quantity is
// set to NULL, since TPC-D data has none.
func identityTargets(t *testing.T) []identityTarget {
	t.Helper()
	s := streamDB(t, 500)
	sRow := func(n int) storage.Row {
		return storage.Row{
			catalog.NewInt(int64(90 + n%17)),
			catalog.NewString(fmt.Sprintf("g%d", n%9)),
			catalog.NewInt(int64(n % 5)),
		}
	}
	targets := []identityTarget{
		{"single", s, "s", []string{"c"}, histogram.EquiDepth, 8, false, sRow},
		{"multi", s, "s", []string{"b", "c"}, histogram.MaxDiff, 0, false, sRow},
		{"nulls", s, "s", []string{"a", "b", "c"}, histogram.MaxDiff, 0, true, sRow},
	}
	skews := []struct {
		name string
		z    float64
		mix  bool
	}{{"z=0", 0, false}, {"z=2", 2, false}, {"z=4", 4, false}, {"MIX", 0, true}}
	for _, seed := range []int64{11, 29} {
		for _, sk := range skews {
			db, err := datagen.Generate(datagen.Config{Scale: 0.05, Z: sk.z, Mix: sk.mix, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			nullEveryFifth(t, db, "customer", "c_acctbal")
			nullEveryFifth(t, db, "lineitem", "l_quantity")
			for _, st := range []struct {
				table string
				cols  []string
				nulls bool
			}{
				{"orders", []string{"o_orderdate"}, false},
				{"lineitem", []string{"l_quantity", "l_partkey"}, true},
				{"customer", []string{"c_acctbal"}, true},
			} {
				targets = append(targets, identityTarget{
					name:  fmt.Sprintf("TPC-D seed=%d %s %s%v", seed, sk.name, st.table, st.cols),
					db:    db,
					table: st.table,
					cols:  st.cols,
					kind:  histogram.MaxDiff,
					nulls: st.nulls,
					row:   copyLiveRow(mustTable(t, db, st.table)),
				})
			}
		}
	}
	return targets
}

// nullEveryFifth sets col to NULL in every fifth live row of table.
func nullEveryFifth(t *testing.T, db *storage.Database, table, col string) {
	t.Helper()
	td := mustTable(t, db, table)
	pos := td.Schema.ColumnIndex(col)
	var ids []int
	live := 0
	td.Scan(func(id int, _ storage.Row) bool {
		if live%5 == 0 {
			ids = append(ids, id)
		}
		live++
		return true
	})
	if _, err := td.Update(func(storage.View) ([]int, error) { return ids, nil }, pos, catalog.NewNull(td.Schema.Columns[pos].Type)); err != nil {
		t.Fatal(err)
	}
}

// copyLiveRow returns a row source whose n-th row is td's (n mod live
// rows)-th live row; Insert copies it, and the duplicate shifts the
// frequencies a refresh must see.
func copyLiveRow(td *storage.TableData) func(n int) storage.Row {
	return func(n int) storage.Row {
		var rows []storage.Row
		td.Scan(func(_ int, r storage.Row) bool {
			rows = append(rows, r)
			return true
		})
		return rows[n%len(rows)]
	}
}

// wantPartials is the number of partials a build over rows live rows cuts at
// the given block size and partition cut: the cut is checked after each
// block, so a partition holds the fewest whole blocks reaching the cut.
func wantPartials(rows, blockSize, partitionRows int) int {
	per := (partitionRows + blockSize - 1) / blockSize * blockSize
	return max(1, (rows+per-1)/per)
}

// TestBuildIdentity is the build path's invariant as one table, and the only
// check of it: at every block size and partition cut, for every input of
// identityTargets, Manager.Create produces exactly the BuildMulti reference
// with the same creation cost after merging exactly the partials the cut
// implies, and a refresh after an insert produces exactly the reference over
// the new contents, charging the same cost to the update-side accounting
// only.
func TestBuildIdentity(t *testing.T) {
	inserted := 0
	for _, tgt := range identityTargets(t) {
		td := mustTable(t, tgt.db, tgt.table)
		for _, bs := range []int{1, 7, 64, 4096} {
			for _, partRows := range []int{1, 64, 0} { // 0 = the default cut
				name := fmt.Sprintf("%s block=%d cut=%d", tgt.name, bs, partRows)
				m := NewManager(tgt.db, tgt.kind, tgt.buckets)
				reg := obs.New()
				m.SetObsRegistry(reg)
				m.pipeline = blockPipeline{blockSize: bs, partitionRows: partRows}
				// checkPartials compares the partials the last build merged
				// with the count the cut implies; the counter only counts
				// builds that merged more than one.
				merged := int64(0)
				checkPartials := func(step string) {
					want := int64(wantPartials(td.RowCount(), bs, cmp.Or(partRows, defaultPartitionRows)))
					if want == 1 {
						want = 0
					}
					total := reg.Snapshot().Counters["stats.build.partials_merged"]
					if got := total - merged; got != want {
						t.Errorf("%s: %s merged %d partials, want %d", name, step, got, want)
					}
					merged = total
				}

				want, wantCost := referenceStat(t, tgt.db, tgt.kind, tgt.buckets, tgt.table, tgt.cols)
				if tgt.nulls && want.Leading.NullRows == 0 {
					t.Fatalf("%s: input has no NULLs in %s", name, tgt.cols[0])
				}
				got, err := m.Create(tgt.table, tgt.cols)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkPartials("create")
				if !reflect.DeepEqual(got.Data, want) {
					t.Errorf("%s: statistic differs from the BuildMulti reference", name)
				}
				if got.BuildCost != wantCost {
					t.Errorf("%s: BuildCost=%v want %v", name, got.BuildCost, wantCost)
				}

				inserted++
				if err := td.Insert(tgt.row(inserted)); err != nil {
					t.Fatal(err)
				}
				want, wantCost = referenceStat(t, tgt.db, tgt.kind, tgt.buckets, tgt.table, tgt.cols)
				before := m.Snapshot()
				if err := m.Refresh(context.Background(), got.ID); err != nil {
					t.Fatalf("%s: refresh: %v", name, err)
				}
				checkPartials("refresh")
				after := m.Snapshot()
				if !reflect.DeepEqual(m.Get(got.ID).Data, want) {
					t.Errorf("%s: refreshed statistic differs from the BuildMulti reference over the new contents", name)
				}
				if charged := after.TotalUpdateCost - before.TotalUpdateCost; charged != wantCost {
					t.Errorf("%s: refresh charged %v update units, want %v", name, charged, wantCost)
				}
				if after.TotalBuildCost != before.TotalBuildCost || after.BuildCount != before.BuildCount {
					t.Errorf("%s: refresh charged creation accounting: %+v -> %+v", name, before, after)
				}
			}
		}
		if n := td.OpenSnapshots(); n != 0 {
			t.Errorf("%s: OpenSnapshots=%d after the sweep", tgt.name, n)
		}
	}
}

// TestBuildMetrics: every build is visible in the registry. A build that
// cuts several partitions is one full scan with every cut partial merged and
// the blocks counted; a refresh is a build too, so full scans always equal
// creations plus refreshes.
func TestBuildMetrics(t *testing.T) {
	t.Run("partitioned create", func(t *testing.T) {
		m := NewManager(testDB(t), histogram.EquiDepth, 0)
		reg := obs.New()
		m.SetObsRegistry(reg)
		// 100 rows in blocks of 10, cut every 25 rows: the cut is checked
		// after each block, so partitions close at 30, 60, 90 and the 10-row
		// tail.
		m.pipeline = blockPipeline{blockSize: 10, partitionRows: 25}
		if _, err := m.Create("t", []string{"a"}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if got := snap.Counters["stats.build.partials_merged"]; got != 4 {
			t.Errorf("partials_merged = %d, want 4", got)
		}
		if got := snap.Counters["stats.build.blocks"]; got != 10 {
			t.Errorf("blocks = %d, want 10", got)
		}
		if got := snap.Counters["stats.build.full_scans"]; got != 1 {
			t.Errorf("full_scans = %d, want 1", got)
		}
	})
	t.Run("create plus refresh", func(t *testing.T) {
		m := NewManager(testDB(t), histogram.EquiDepth, 0)
		reg := obs.New()
		m.SetObsRegistry(reg)
		st, err := m.Create("t", []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Refresh(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		c := reg.Snapshot().Counters
		if got := c["stats.build.full_scans"]; got != 2 {
			t.Errorf("full_scans = %d, want 2 (create + refresh)", got)
		}
		if scans, sum := c["stats.build.full_scans"], c["stats.builds"]+c["stats.refreshes"]; scans != sum {
			t.Errorf("full_scans = %d, builds + refreshes = %d", scans, sum)
		}
	})
}

// TestStreamingCancelMidStream: aborting a build between blocks — after
// several partials have already been cut — by cancelling its context or by a
// failing "block" failpoint must return that cause, release the block
// iterator's snapshot guard and leave catalog/epoch/accounting untouched; the
// same build then succeeds and matches the reference.
func TestStreamingCancelMidStream(t *testing.T) {
	injected := errors.New("injected block fault")
	for _, tc := range []struct {
		name string
		want error
	}{
		{"cancel", context.Canceled},
		{"fault", injected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := streamDB(t, 400)
			m := NewManager(db, histogram.MaxDiff, 0)
			m.SetObsRegistry(obs.New())
			m.pipeline = blockPipeline{blockSize: 8, partitionRows: 40}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			blocks := 0
			m.SetFailpoint(func(fpCtx context.Context, op string, id ID) error {
				if op != "block" {
					return nil
				}
				blocks++
				// With BlockSize 8 and PartitionRows 40, block 20 is well
				// past several cut partials.
				if blocks == 20 {
					if tc.want == injected {
						return injected
					}
					cancel()
				}
				return nil
			})
			epoch := m.Epoch()
			acc := m.Snapshot()
			_, _, err := m.EnsureCtx(ctx, "s", []string{"a", "b"})
			if !errors.Is(err, tc.want) {
				t.Fatalf("aborted build returned %v, want %v", err, tc.want)
			}
			if blocks < 20 {
				t.Fatalf("build consumed only %d blocks; abort point never reached", blocks)
			}
			if n := mustTable(t, db, "s").OpenSnapshots(); n != 0 {
				t.Errorf("OpenSnapshots=%d after abort — snapshot guard leaked", n)
			}
			if m.Epoch() != epoch {
				t.Error("aborted build bumped the epoch")
			}
			if got := m.Snapshot(); got != acc {
				t.Error("aborted build changed accounting")
			}
			if m.Has(MakeID("s", []string{"a", "b"})) {
				t.Error("aborted build published a statistic")
			}
			// The table must be fully writable again (guard released).
			if err := mustTable(t, db, "s").Insert(storage.Row{
				catalog.NewInt(1), catalog.NewString("z"), catalog.NewInt(1),
			}); err != nil {
				t.Fatal(err)
			}
			m.SetFailpoint(nil)
			got, err := m.Create("s", []string{"a", "b"})
			if err != nil {
				t.Fatalf("retry after abort: %v", err)
			}
			want, _ := referenceStat(t, db, histogram.MaxDiff, 0, "s", []string{"a", "b"})
			if !reflect.DeepEqual(got.Data, want) {
				t.Error("retry after abort differs from the reference build")
			}
		})
	}
}

// TestStreamingConcurrentBuildsAndDML: refreshes, readers and DML hammer one
// table concurrently; run under -race this proves block scans and writers
// never interleave on shared state. The final refreshed statistic must equal
// a fresh reference build exactly.
func TestStreamingConcurrentBuildsAndDML(t *testing.T) {
	db := streamDB(t, 300)
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	m.pipeline = blockPipeline{blockSize: 16, partitionRows: 64}
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
			if err := m.Refresh(context.Background(), id); err != nil {
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
	if err := m.Refresh(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	want, _ := referenceStat(t, db, histogram.MaxDiff, 0, "s", []string{"a"})
	if !reflect.DeepEqual(m.Get(id).Data, want) {
		t.Error("final refresh differs from reference")
	}
}

// TestBuildMemPeakIsHighWaterMark: stats.build.mem_peak_bytes is the largest
// estimated build memory over every build reporting to the registry, so a
// narrow build after a wide one must not lower it.
func TestBuildMemPeakIsHighWaterMark(t *testing.T) {
	m := NewManager(streamDB(t, 2_000), histogram.MaxDiff, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	peak := reg.Gauge("stats.build.mem_peak_bytes")
	if _, err := m.Create("s", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	wide := peak.Value()
	if wide <= 0 {
		t.Fatalf("mem_peak_bytes=%d after a build", wide)
	}
	narrow := NewManager(m.Database(), histogram.MaxDiff, 0)
	narrowReg := obs.New()
	narrow.SetObsRegistry(narrowReg)
	if _, err := narrow.Create("s", []string{"c"}); err != nil {
		t.Fatal(err)
	}
	if n := narrowReg.Gauge("stats.build.mem_peak_bytes").Value(); n <= 0 || n >= wide {
		t.Fatalf("narrow build peak %d not below the wide build peak %d", n, wide)
	}
	if _, err := m.Create("s", []string{"c"}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Value(); got != wide {
		t.Errorf("mem_peak_bytes=%d after a narrow build, want the wide peak %d", got, wide)
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

// BenchmarkStreamingManagerBuild is the end-to-end build (a refresh at the
// default block size and partition cut) the CI layers job watches with
// -benchmem: per-build allocations must track the block/partition bounds,
// not the table size. The table is shaped like lineitem, 16 columns of all
// four types, so that a scan reading one value out of every wide row, rather
// than out of a column vector, shows in ns/row.
func BenchmarkStreamingManagerBuild(b *testing.B) {
	const rows = 100_000
	cols := []catalog.Column{
		{Name: "l_orderkey", Type: catalog.Int}, {Name: "l_partkey", Type: catalog.Int},
		{Name: "l_suppkey", Type: catalog.Int}, {Name: "l_linenumber", Type: catalog.Int},
		{Name: "l_quantity", Type: catalog.Float}, {Name: "l_extendedprice", Type: catalog.Float},
		{Name: "l_discount", Type: catalog.Float}, {Name: "l_tax", Type: catalog.Float},
		{Name: "l_returnflag", Type: catalog.String}, {Name: "l_linestatus", Type: catalog.String},
		{Name: "l_shipdate", Type: catalog.Date}, {Name: "l_commitdate", Type: catalog.Date},
		{Name: "l_receiptdate", Type: catalog.Date}, {Name: "l_shipinstruct", Type: catalog.String},
		{Name: "l_shipmode", Type: catalog.String}, {Name: "l_comment", Type: catalog.String},
	}
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("lineitem", cols...)); err != nil {
		b.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]storage.Row, rows)
	for i := range data {
		r := make(storage.Row, len(cols))
		for c, col := range cols {
			switch col.Type {
			case catalog.Int:
				r[c] = catalog.NewInt(rng.Int63n(int64(rows)))
			case catalog.Float:
				r[c] = catalog.NewFloat(float64(1 + rng.Intn(50)))
			case catalog.Date:
				r[c] = catalog.NewDate(8000 + rng.Int63n(2500))
			default:
				r[c] = catalog.NewString(fmt.Sprintf("%s-%d", col.Name, rng.Intn(7)))
			}
		}
		data[i] = r
	}
	if err := mustTable(b, db, "lineitem").BulkLoad(data); err != nil {
		b.Fatal(err)
	}
	m := NewManager(db, histogram.MaxDiff, 0)
	m.SetObsRegistry(obs.New())
	on := []string{"l_quantity", "l_shipmode"}
	id := MakeID("lineitem", on)
	if _, err := m.Create("lineitem", on); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Refresh(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

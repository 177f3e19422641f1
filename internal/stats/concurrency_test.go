package stats

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/histogram"
	"autostats/internal/storage"
)

// TestManagerConcurrentMutation hammers the manager from many goroutines —
// creates, drops, refreshes, drop-list flips and reads — and relies on the
// race detector to catch unsynchronized access. Run with go test -race.
func TestManagerConcurrentMutation(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	cols := [][]string{{"a"}, {"b"}, {"a", "b"}, {"b", "a"}}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cols[(w+i)%len(cols)]
				id := MakeID("t", c)
				switch (w + i) % 5 {
				case 0:
					if _, err := m.Create("t", c); err != nil {
						t.Errorf("create: %v", err)
						return
					}
				case 1:
					m.Drop(id)
				case 2:
					// Refresh errors when another goroutine dropped the
					// statistic first; only unexpected errors matter.
					if m.Has(id) {
						_ = m.Refresh(id)
					}
				case 3:
					m.AddToDropList(id)
					m.RemoveFromDropList(id)
				default:
					for _, st := range m.StatsForColumn("t", c[0]) {
						_ = st.Data.Leading.Distinct // read published data
					}
					_ = m.Epoch()
					_ = m.Snapshot()
					m.Maintained()
				}
			}
		}(w)
	}
	wg.Wait()

	// The manager must still be coherent: every surviving statistic readable.
	for _, st := range m.All() {
		if st.Data == nil || st.Data.Leading == nil {
			t.Errorf("statistic %s has nil data after concurrent churn", st.ID)
		}
	}
}

// TestEpochMonotoneUnderConcurrency: the epoch never decreases, and ends
// having advanced at least once per successful mutation batch.
func TestEpochMonotoneUnderConcurrency(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := m.Epoch()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := m.Epoch()
			if e < last {
				t.Error("epoch went backwards")
				return
			}
			last = e
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := m.Create("t", []string{"a"}); err != nil {
			t.Fatal(err)
		}
		m.Drop(MakeID("t", []string{"a"}))
	}
	close(stop)
	wg.Wait()
	if m.Epoch() < 40 {
		t.Errorf("epoch %d after 40 mutations", m.Epoch())
	}
}

// TestPublishedStatisticNeverWritten: a *Statistic the manager has handed
// out is immutable. Every mutator must leave *p as it was, and Get must
// return a different pointer (or nil) exactly when the visible state of the
// statistic changed.
func TestPublishedStatisticNeverWritten(t *testing.T) {
	id := MakeID("t", []string{"a"})
	dropList := func(t *testing.T, m *Manager) { m.AddToDropList(id) }
	for _, tc := range []struct {
		name     string
		setup    func(t *testing.T, m *Manager) // state before p is taken
		mutate   func(t *testing.T, m *Manager)
		replaced bool
	}{
		{"AddToDropList", nil, func(t *testing.T, m *Manager) { m.AddToDropList(id) }, true},
		{"AddToDropList/listed", dropList, func(t *testing.T, m *Manager) { m.AddToDropList(id) }, false},
		{"RemoveFromDropList", dropList, func(t *testing.T, m *Manager) { m.RemoveFromDropList(id) }, true},
		{"RemoveFromDropList/maintained", nil, func(t *testing.T, m *Manager) { m.RemoveFromDropList(id) }, false},
		{"Ensure/resurrect", dropList, func(t *testing.T, m *Manager) {
			s, built, err := m.Ensure("t", []string{"a"})
			if err != nil || built || s.InDropList || s != m.Get(id) {
				t.Errorf("Ensure = %+v, built %v, err %v; want the published, maintained replacement", s, built, err)
			}
		}, true},
		{"Ensure/maintained", nil, func(t *testing.T, m *Manager) {
			if _, _, err := m.Ensure("t", []string{"a"}); err != nil {
				t.Error(err)
			}
		}, false},
		{"Refresh/rebuild", nil, func(t *testing.T, m *Manager) {
			if err := m.Refresh(id); err != nil {
				t.Error(err)
			}
		}, true},
		{"Refresh/fold", func(t *testing.T, m *Manager) {
			// Deltas logged after the build make the refresh fold-eligible.
			td := mustTable(t, m.Database(), "t")
			for i := 0; i < 5; i++ {
				if err := td.Insert(storage.Row{catalog.NewInt(3), catalog.NewInt(1)}); err != nil {
					t.Fatal(err)
				}
			}
		}, func(t *testing.T, m *Manager) {
			if err := m.Refresh(id); err != nil {
				t.Error(err)
			}
			if got := m.Get(id); got.FoldedRows != 5 {
				t.Errorf("FoldedRows = %d, want 5 (the refresh did not fold)", got.FoldedRows)
			}
		}, true},
		{"Refresh/listed", dropList, func(t *testing.T, m *Manager) {
			if err := m.Refresh(id); err != nil {
				t.Error(err)
			}
		}, false},
		{"Drop", nil, func(t *testing.T, m *Manager) { m.Drop(id) }, true},
		{"Load", nil, func(t *testing.T, m *Manager) {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := m.Load(&buf); err != nil {
				t.Error(err)
			}
		}, true},
		{"dropAll", nil, func(t *testing.T, m *Manager) { m.dropAll() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(testDB(t), histogram.EquiDepth, 0)
			if err := m.SetIncrementalMaintenance(FoldConfig{Enabled: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Create("t", []string{"a"}); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(t, m)
			}
			p := m.Get(id)
			before := *p
			epoch := m.Epoch()
			tc.mutate(t, m)
			if !reflect.DeepEqual(*p, before) {
				t.Errorf("published statistic written in place:\n got %+v\nwant %+v", *p, before)
			}
			if got := m.Get(id); (got != p) != tc.replaced {
				t.Errorf("Get returned the same pointer: %v, want replaced: %v", got == p, tc.replaced)
			}
			if (m.Epoch() != epoch) != tc.replaced {
				t.Errorf("epoch %d -> %d, want changed: %v", epoch, m.Epoch(), tc.replaced)
			}
		})
	}
}

// TestReadersDoNotWaitOnBuild: while a build is parked mid-scan — holding
// the writer mutex — every reader returns at once with the pre-build
// catalog; after the build publishes, readers see the new statistic and a
// larger epoch together.
func TestReadersDoNotWaitOnBuild(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	if _, err := m.Create("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	a, b := MakeID("t", []string{"a"}), MakeID("t", []string{"b"})
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.SetFailpoint(func(ctx context.Context, op string, id ID) error {
		if op == "block" {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return nil
	})
	built := make(chan error, 1)
	go func() {
		_, err := m.Create("t", []string{"b"})
		built <- err
	}()
	<-parked

	type view struct {
		epoch  uint64
		forCol int
		a, b   *Statistic
		all    int
	}
	read := func() view {
		return view{m.Epoch(), len(m.StatsForColumn("t", "a")), m.Get(a), m.Get(b), len(m.All())}
	}
	during := make(chan view, 1)
	go func() { during <- read() }()
	var pre view
	select {
	case pre = <-during:
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("readers blocked behind a parked build")
	}
	if pre.forCol != 1 || pre.a == nil || pre.b != nil || pre.all != 1 {
		t.Errorf("mid-build view %+v, want the pre-build catalog (t(a) only)", pre)
	}
	close(release)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if post := read(); post.b == nil || post.all != 2 || post.epoch <= pre.epoch {
		t.Errorf("post-build view %+v, want t(b) published with an epoch above %d", post, pre.epoch)
	}
}

// BenchmarkManagerRead measures the statement path's catalog reads — the
// plan-cache key assembly calls StatsForColumn and Epoch per predicate
// column — over single-column statistics on the eight TPC-D tables, quiet
// and beside one writer flipping a drop-list flag on another table.
func BenchmarkManagerRead(b *testing.B) {
	db, err := datagen.Generate(datagen.Config{Scale: 0.05, Z: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(db, histogram.MaxDiff, 0)
	for _, name := range db.Schema.TableNames() {
		td, err := db.Table(name)
		if err != nil {
			b.Fatal(err)
		}
		for i, col := range td.Schema.Columns {
			if i%4 == 3 {
				continue // 61 columns -> 48 statistics, a tuned catalog's size
			}
			if _, err := m.Create(name, []string{col.Name}); err != nil {
				b.Fatal(err)
			}
		}
	}
	get := MakeID("lineitem", []string{"l_quantity"})
	flip := MakeID("orders", []string{"o_orderdate"})
	if !m.Has(get) || !m.Has(flip) {
		b.Fatalf("fixture lacks %s or %s", get, flip)
	}
	reads := []struct {
		name string
		fn   func()
	}{
		{"StatsForColumn", func() {
			if len(m.StatsForColumn("lineitem", "l_quantity")) != 1 {
				b.Error("StatsForColumn lost the statistic")
			}
			_ = m.Epoch()
		}},
		{"Get", func() {
			if m.Get(get) == nil {
				b.Error("Get lost the statistic")
			}
		}},
		{"All", func() { _ = m.All() }},
	}
	for _, r := range reads {
		for _, writer := range []bool{false, true} {
			name := r.name + "/quiet"
			if writer {
				name = r.name + "/writer"
			}
			b.Run(name, func(b *testing.B) {
				stop := make(chan struct{})
				var wg sync.WaitGroup
				if writer {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
								m.AddToDropList(flip)
								m.RemoveFromDropList(flip)
							}
						}
					}()
				}
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						r.fn()
					}
				})
				b.StopTimer()
				close(stop)
				wg.Wait()
			})
		}
	}
}

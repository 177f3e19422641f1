package autostats

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// raceCustKey is a customer key no generated order has, so the rows these
// tests insert are the only ones a seek on it finds.
const raceCustKey = 999_999

func insertOrder(orderKey int, clerk string) string {
	return fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'O', 100.5, DATE 10000, '3-MEDIUM', '%s', 0, 'c')",
		orderKey, raceCustKey, clerk)
}

// TestIndexSeekBesideConcurrentWrites runs an index-seek SELECT against an
// INSERT that shifts the same index's entries, and against an UPDATE that
// rewrites the rows the seek returns. Every read of an index entry or row
// must happen under the table's read lock; under -race, a seek that reads
// either after the lock is released fails this test. Each seek returns
// the seeded rows, so a writer waiting for the lock gets it between two of
// them many times per statement.
func TestIndexSeekBesideConcurrentWrites(t *testing.T) {
	const n, seeded = 300, 200
	seekSQL := fmt.Sprintf("SELECT * FROM orders WHERE o_custkey = %d", raceCustKey)
	writes := map[string]func(i int) string{
		"insert": func(i int) string { return insertOrder(2_000_000+i, "Clerk#ins") },
		"update": func(i int) string {
			return fmt.Sprintf("UPDATE orders SET o_totalprice = %d.25 WHERE o_custkey = %d", i, raceCustKey)
		},
	}
	for _, name := range []string{"insert", "update"} {
		t.Run(name, func(t *testing.T) {
			sys, err := GenerateTPCD(TPCDOptions{Scale: 0.05, Skew: 2})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < seeded; k++ {
				if _, err := sys.Exec(insertOrder(1_000_000+k, "Clerk#seed")); err != nil {
					t.Fatal(err)
				}
			}
			if plan, err := sys.Explain(context.Background(), seekSQL); err != nil || !strings.Contains(plan, "IndexSeek") {
				t.Fatalf("the SELECT must seek o_custkey's index; plan %q, err %v", plan, err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2*n)
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					res, err := sys.Exec(seekSQL)
					if err == nil && len(res.Rows) < seeded {
						err = fmt.Errorf("seek returned %d rows, want at least the %d seeded", len(res.Rows), seeded)
					}
					if err != nil {
						errs <- err
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := sys.Exec(writes[name](i)); err != nil {
						errs <- err
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestDMLMatchAndWriteAreAtomic: two goroutines flip c from 0 to 1 and one
// flips it back, each with "UPDATE … SET c = x WHERE key AND c = ¬x". If a
// statement's match and write are one critical section, every flip that
// reports a row found it in the state it left, so the flips to 1 minus the
// flips to 0 equal the final c. A statement that matched, released the lock
// and then wrote would let both flips to 1 count the same row. The key is
// indexed (the match seeks) or not (it scans).
func TestDMLMatchAndWriteAreAtomic(t *testing.T) {
	const n = 500
	for _, tc := range []struct{ name, key string }{
		{"indexed", "o_orderkey = 1000000"},
		{"scanned", "o_clerk = 'Clerk#atomic'"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := GenerateTPCD(TPCDOptions{Scale: 0.05, Skew: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Exec(insertOrder(1_000_000, "Clerk#atomic")); err != nil {
				t.Fatal(err)
			}
			flip := func(to int) string {
				return fmt.Sprintf("UPDATE orders SET o_shippriority = %d WHERE %s AND o_shippriority = %d", to, tc.key, 1-to)
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			flips := map[int]int{}
			errs := make(chan error, 3*n)
			for _, to := range []int{1, 1, 0} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sql := flip(to)
					for i := 0; i < n; i++ {
						res, err := sys.Exec(sql)
						if err != nil {
							errs <- err
							continue
						}
						mu.Lock()
						flips[to] += res.Affected
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			res, err := sys.Exec("SELECT o_shippriority FROM orders WHERE " + tc.key)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("reading c back: %v, %v", res, err)
			}
			col := slices.Index(res.Columns, "orders.o_shippriority")
			if col < 0 {
				t.Fatalf("no o_shippriority among %v", res.Columns)
			}
			final, err := strconv.Atoi(res.Rows[0][col])
			if err != nil {
				t.Fatal(err)
			}
			if flips[1]-flips[0] != final {
				t.Fatalf("%d flips to 1 minus %d flips to 0 = %d, but c = %d: two statements wrote one match",
					flips[1], flips[0], flips[1]-flips[0], final)
			}
		})
	}
}

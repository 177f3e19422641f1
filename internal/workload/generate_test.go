package workload

import (
	"bytes"
	"strings"
	"testing"

	"autostats/internal/datagen"
	"autostats/internal/query"
	"autostats/internal/storage"
)

func genDB(t testing.TB) *storage.Database {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Scale: 0.25, Z: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestConfigNameRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{Count: 1000, UpdatePct: 25, Complexity: Simple},
		{Count: 100, UpdatePct: 0, Complexity: Complex},
		{Count: 500, UpdatePct: 50, Complexity: Complex},
	} {
		name := cfg.name()
		back, err := ConfigByName(name, 7)
		if err != nil {
			t.Fatalf("ConfigByName(%q): %v", name, err)
		}
		if back.Count != cfg.Count || back.UpdatePct != cfg.UpdatePct || back.Complexity != cfg.Complexity {
			t.Errorf("%q round-tripped to %+v", name, back)
		}
	}
	if (Config{Count: 1000, UpdatePct: 25, Complexity: Simple}).name() != "U25-S-1000" {
		t.Error("paper naming scheme broken")
	}
	for _, bad := range []string{"", "X25-S-100", "U25-Q-100", "U25-S", "U2x-S-100"} {
		if _, err := ConfigByName(bad, 1); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	db := genDB(t)
	cfg := Config{Count: 50, UpdatePct: 25, Complexity: Complex, Seed: 11}
	w1, err := Generate(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db2 := genDB(t)
	w2, err := Generate(db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Statements) != len(w2.Statements) {
		t.Fatal("lengths differ")
	}
	for i := range w1.Statements {
		if w1.Statements[i].SQL() != w2.Statements[i].SQL() {
			t.Fatalf("statement %d differs:\n%s\n%s", i, w1.Statements[i].SQL(), w2.Statements[i].SQL())
		}
	}
}

func TestUpdatePctRespected(t *testing.T) {
	db := genDB(t)
	for _, pct := range []int{0, 25, 50} {
		w, err := Generate(db, Config{Count: 400, UpdatePct: pct, Complexity: Simple, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		dml := len(w.UpdateStatements())
		got := float64(dml) / 4.0 // percent of 400
		if got < float64(pct)-8 || got > float64(pct)+8 {
			t.Errorf("UpdatePct=%d produced %.0f%% DML", pct, got)
		}
		if len(w.Queries())+dml != 400 {
			t.Error("queries + DML != total")
		}
	}
}

func TestComplexityBoundsTables(t *testing.T) {
	db := genDB(t)
	for _, c := range []Complexity{Simple, Complex} {
		w, err := Generate(db, Config{Count: 200, Complexity: c, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		maxSeen := 0
		for _, q := range w.Queries() {
			if len(q.Tables) > maxSeen {
				maxSeen = len(q.Tables)
			}
		}
		if maxSeen > c.maxTables() {
			t.Errorf("%s workload used %d tables (cap %d)", c.letter(), maxSeen, c.maxTables())
		}
	}
}

// TestQueriesAreConnected: every multi-table query must have join predicates
// linking all its tables (no accidental cartesian products).
func TestQueriesAreConnected(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Config{Count: 300, Complexity: Complex, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries() {
		if len(q.Tables) < 2 {
			continue
		}
		parent := map[string]string{}
		var find func(string) string
		find = func(x string) string {
			if parent[x] == "" || parent[x] == x {
				return x
			}
			r := find(parent[x])
			parent[x] = r
			return r
		}
		for _, tb := range q.Tables {
			parent[tb] = tb
		}
		for _, j := range q.Joins {
			a, b := find(strings.ToLower(j.Left.Table)), find(strings.ToLower(j.Right.Table))
			if a != b {
				parent[a] = b
			}
		}
		root := find(q.Tables[0])
		for _, tb := range q.Tables[1:] {
			if find(tb) != root {
				t.Errorf("Q%d is disconnected: %s", i, q.SQL())
				break
			}
		}
	}
}

// TestSnowflakeShape: at most one one-to-many expansion — verified by
// checking that no two tables in a query are both "children" joined only
// upward... we verify the generator's own invariant indirectly by bounding
// estimated blow-up: every query's join predicates must include, for every
// pair of fact tables present, a direct connection (partsupp & lineitem
// always carry their composite predicates when both appear).
func TestCompositeJoinEmitted(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Config{Count: 300, Complexity: Complex, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range w.Queries() {
		hasLI, hasPS := false, false
		for _, tb := range q.Tables {
			hasLI = hasLI || tb == "lineitem"
			hasPS = hasPS || tb == "partsupp"
		}
		if !hasLI || !hasPS {
			continue
		}
		found = true
		part, supp := false, false
		for _, j := range q.Joins {
			s := j.String()
			if strings.Contains(s, "l_partkey = partsupp.ps_partkey") || strings.Contains(s, "ps_partkey = lineitem.l_partkey") {
				part = true
			}
			if strings.Contains(s, "l_suppkey = partsupp.ps_suppkey") || strings.Contains(s, "ps_suppkey = lineitem.l_suppkey") {
				supp = true
			}
		}
		if !part || !supp {
			t.Errorf("lineitem+partsupp query missing composite join: %s", q.SQL())
		}
	}
	if !found {
		t.Skip("no lineitem+partsupp query generated with this seed")
	}
}

func TestPredicateConstantsComeFromData(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Config{Count: 200, Complexity: Simple, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, q := range w.Queries() {
		for _, f := range q.Filters {
			if f.Op != query.Eq {
				continue
			}
			vals, err := mustTable(t, db, f.Col.Table).ColumnValues(f.Col.Column)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, v := range vals {
				if v.Compare(f.Val) == 0 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("equality constant %s not present in %s.%s", f.Val, f.Col.Table, f.Col.Column)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no equality predicates generated")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := genDB(t)
	w, err := Generate(db, Config{Count: 80, UpdatePct: 30, Complexity: Complex, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(db.Schema, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name {
		t.Errorf("name %q != %q", back.Name, w.Name)
	}
	if len(back.Statements) != len(w.Statements) {
		t.Fatalf("statement count %d != %d", len(back.Statements), len(w.Statements))
	}
	for i := range w.Statements {
		if back.Statements[i].SQL() != w.Statements[i].SQL() {
			t.Errorf("statement %d: %q != %q", i, back.Statements[i].SQL(), w.Statements[i].SQL())
		}
	}
}

func TestLoadRejectsBadSQL(t *testing.T) {
	db := genDB(t)
	if _, err := Load(db.Schema, strings.NewReader("SELECT * FROM nowhere;\n")); err == nil {
		t.Error("expected parse error")
	}
}

func TestGenerateValidatesCount(t *testing.T) {
	db := genDB(t)
	if _, err := Generate(db, Config{Count: 0}); err == nil {
		t.Error("expected error for zero count")
	}
}

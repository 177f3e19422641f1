package workload

import (
	"bytes"
	"testing"

	"autostats/internal/datagen"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
)

// TestRoundTripTPCDOrig: every TPCD-ORIG query re-renders and re-parses to
// identical SQL (fixed point after one round).
func TestRoundTripTPCDOrig(t *testing.T) {
	db, err := datagen.Generate(datagen.Config{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Schema
	w, err := TPCDOrig(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Statements) != 17 {
		t.Fatalf("TPCD-ORIG has %d statements", len(w.Statements))
	}
	for i, stmt := range w.Statements {
		once := stmt.SQL()
		re, err := sqlparser.Parse(s, once)
		if err != nil {
			t.Fatalf("Q%d re-parse: %v", i+1, err)
		}
		if re.SQL() != once {
			t.Errorf("Q%d round trip:\n%s\n%s", i+1, once, re.SQL())
		}
	}
}

// TestRoundTripGeneratedWorkload: generated workloads (including DML)
// survive the print→parse→print round trip.
func TestRoundTripGeneratedWorkload(t *testing.T) {
	db, err := datagen.Generate(datagen.Config{Scale: 0.2, Z: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(db, Config{Count: 120, UpdatePct: 30, Complexity: Complex, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range w.Statements {
		once := stmt.SQL()
		re, err := sqlparser.Parse(db.Schema, once)
		if err != nil {
			t.Fatalf("stmt %d (%q) re-parse: %v", i, once, err)
		}
		if re.SQL() != once {
			t.Errorf("stmt %d round trip:\n%s\n%s", i, once, re.SQL())
		}
	}
}

// TestRoundTripHarnessWorkloads is the property the differential oracle
// depends on, over the full adversarial grammar the harness enables: with
// <> predicates, out-of-range constants, GROUP BY, HAVING and ORDER BY all
// switched on, every generated statement must survive print→parse→print
// to a fixed point, across several seeds.
func TestRoundTripHarnessWorkloads(t *testing.T) {
	db, err := datagen.Generate(datagen.Config{Scale: 0.1, Z: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		w, err := Generate(db, Config{
			Count:         150,
			UpdatePct:     15,
			Complexity:    Complex,
			GroupByPct:    40,
			OrderByPct:    25,
			NePct:         25,
			OutOfRangePct: 25,
			HavingPct:     50,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		sawNe, sawHaving := false, false
		for i, stmt := range w.Statements {
			once := stmt.SQL()
			re, err := sqlparser.Parse(db.Schema, once)
			if err != nil {
				t.Fatalf("seed %d stmt %d (%q) re-parse: %v", seed, i, once, err)
			}
			if got := re.SQL(); got != once {
				t.Errorf("seed %d stmt %d round trip:\n%s\n%s", seed, i, once, got)
			}
			if q, ok := stmt.(*query.Select); ok {
				for _, f := range q.Filters {
					if f.Op == query.Ne {
						sawNe = true
					}
				}
				if len(q.Having) > 0 {
					sawHaving = true
				}
			}
		}
		// The knobs must actually fire, or this test is vacuous.
		if !sawNe || !sawHaving {
			t.Errorf("seed %d: adversarial grammar not exercised (ne=%v having=%v)", seed, sawNe, sawHaving)
		}
	}
}

// TestSaveLoadHarnessWorkload: serializing a harness workload to its file format
// and loading it back must preserve every statement exactly, and a second
// save must be byte-identical (satisfying the serialize→parse property at
// the file level, not just per statement).
func TestSaveLoadHarnessWorkload(t *testing.T) {
	db, err := datagen.Generate(datagen.Config{Scale: 0.1, Z: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(db, Config{
		Count: 200, UpdatePct: 20, Complexity: Complex,
		GroupByPct: 40, OrderByPct: 25, NePct: 20, OutOfRangePct: 20, HavingPct: 40,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Name = "harness-roundtrip"

	var first bytes.Buffer
	if err := w.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(db.Schema, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("load of saved workload: %v", err)
	}
	if loaded.Name != w.Name {
		t.Errorf("name %q -> %q", w.Name, loaded.Name)
	}
	if len(loaded.Statements) != len(w.Statements) {
		t.Fatalf("statement count %d -> %d", len(w.Statements), len(loaded.Statements))
	}
	for i := range w.Statements {
		if got, want := loaded.Statements[i].SQL(), w.Statements[i].SQL(); got != want {
			t.Errorf("statement %d changed across save/load:\n  saved:  %s\n  loaded: %s", i, want, got)
		}
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("save → load → save is not byte-identical")
	}
}

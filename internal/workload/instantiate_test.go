package workload

import (
	"testing"

	"autostats/internal/datagen"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// TestRepeatedTemplateHitRate: a prepared-statement-style stream — a few
// templates, each optimized many times with constants re-sampled from the
// live data — must hit the parameterized plan cache above 90% (a key that
// embeds the raw SQL scores exactly 0 here), with one cache lookup per
// statement and no evictions.
func TestRepeatedTemplateHitRate(t *testing.T) {
	const templates, instancesPerTemplate = 6, 150

	cfg, err := datagen.ConfigByName("TPCD_2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = 0.1
	db, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Histograms on the indexed columns make the selectivity buckets real:
	// without any statistics every constant would share the missing bucket
	// and the hit rate would be trivially high.
	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
	for _, ix := range db.Schema.Indexes {
		if _, err := mgr.Create(ix.Table, []string{ix.Column}); err != nil {
			t.Fatal(err)
		}
	}

	// Single-filter shapes keep the space of bucket vectors per template
	// small, which is the prepared-statement scenario the cache is sized for.
	w, err := Generate(db, Config{Count: templates * 10, Complexity: Simple, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tmpls []*query.Select
	for _, q := range w.Queries() {
		if len(q.Filters) == 1 && len(tmpls) < templates {
			tmpls = append(tmpls, q)
		}
	}
	if len(tmpls) < templates {
		t.Fatalf("only %d of %d single-filter templates generated", len(tmpls), templates)
	}

	sess := optimizer.NewSession(mgr)
	cache := optimizer.NewPlanCache(1024)
	sess.SetPlanCache(cache)
	inst := NewInstantiator(db, 2)
	for i := 0; i < instancesPerTemplate; i++ {
		for _, tm := range tmpls {
			if _, err := sess.Optimize(inst.Instantiate(tm)); err != nil {
				t.Fatal(err)
			}
		}
	}

	cs := cache.Stats()
	if cs.HitRate() <= 0.9 {
		t.Errorf("repeated-template hit rate = %.3f, want > 0.9 (hits=%d misses=%d entries=%d)",
			cs.HitRate(), cs.Hits, cs.Misses, cs.Size)
	}
	if got, want := cs.Hits+cs.Misses, uint64(templates*instancesPerTemplate); got != want {
		t.Errorf("cache lookups = %d, want one per statement (%d)", got, want)
	}
	if cs.Evictions != 0 {
		t.Errorf("tiny workload should not evict: %d evictions", cs.Evictions)
	}
}

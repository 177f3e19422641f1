package oracle

import "testing"

// TestStreamingSweep runs the streaming differential oracle at two seeds:
// zero histogram mismatches across block sizes, partition cuts and shuffled
// merge orders.
func TestStreamingSweep(t *testing.T) {
	for _, seed := range []int64{11, 29} {
		h, err := New(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.RunStreamingSweep()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Findings {
			t.Errorf("seed %d: %s", seed, f)
		}
		if rep.Builds == 0 || rep.MergeOrders == 0 {
			t.Fatalf("seed %d: sweep did no work: %+v", seed, rep)
		}
		t.Logf("seed %d: %d streaming builds, %d shuffled merges, %d findings",
			seed, rep.Builds, rep.MergeOrders, len(rep.Findings))
	}
}

package exp

import "testing"

// TestHHChurn is the sweep's acceptance gate: dynamic allocation must
// detect newly-hot failing prefixes measurably faster than the static
// top-k baseline, and the sweep must be seed-deterministic.
func TestHHChurn(t *testing.T) {
	const seed = 20220822
	r := HHChurn(Quick, seed)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if !row.DynamicDetected {
			t.Errorf("epoch %d entry %d undetected under dynamic allocation", row.Epoch, row.Entry)
		}
	}
	if r.DynamicMedian >= r.StaticMedian {
		t.Fatalf("dynamic median %v not below static median %v", r.DynamicMedian, r.StaticMedian)
	}
	if r.HH.Promotions == 0 {
		t.Fatalf("allocation loop never promoted: %+v", r.HH)
	}

	if a, b := HHChurn(Quick, seed).Render(), r.Render(); a != b {
		t.Fatalf("same seed, different renders:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b, a)
	}
}

package exp

import "testing"

// TestFleetWorkersByteIdentical pins the trial-level parallel sweep to the
// sequential one: every worker count must render the exact same table —
// same localizations, same TTLs, same suppression counts — because each
// trial owns its simulator and its result slot, and seeding depends only on
// the trial index.
func TestFleetWorkersByteIdentical(t *testing.T) {
	const seed = 20220822
	want := FleetAbileneWorkers(Quick, seed, false, 1).Render()
	for _, workers := range []int{2, 4, 7} {
		got := FleetAbileneWorkers(Quick, seed, false, workers).Render()
		if got != want {
			t.Errorf("workers=%d diverged from sequential:\n--- sequential\n%s--- workers=%d\n%s",
				workers, want, workers, got)
		}
	}
	// The verified-gate variant must hold the same property.
	wantV := FleetAbileneWorkers(Quick, seed, true, 1).Render()
	if got := FleetAbileneWorkers(Quick, seed, true, 4).Render(); got != wantV {
		t.Error("verified sweep diverged between 1 and 4 workers")
	}
}

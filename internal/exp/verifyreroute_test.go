package exp

// Chaos-suite contract: the unverified baseline must actually install the
// composed forwarding loop (otherwise the suite proves nothing), and every
// verified trial must reject it, repair via an alternate next hop, keep
// exact localization of both failures, and end with zero unsafe atoms. The
// soak widens the seed batch nightly via FANCY_VERIFY_SOAK_RUNS.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"fancy/internal/sim"
)

func TestVerifiedRerouteChaos(t *testing.T) {
	r := VerifiedReroute(Quick, 20220822)
	if r.BaselineLoopAtoms < 1 {
		t.Fatalf("baseline installed no loop (loop atoms %d) — the chaos composition is broken",
			r.BaselineLoopAtoms)
	}
	if r.BaselineTTL <= 0 {
		t.Fatalf("baseline localization TTL %v — localization itself broke", r.BaselineTTL)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no verified trials")
	}
	for _, row := range r.Rows {
		assertVerifiedRow(t, row)
	}
	out := r.Render()
	for _, want := range []string{"baseline (unverified)", "loop atom(s)", "exact"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render misses %q:\n%s", want, out)
		}
	}
}

func assertVerifiedRow(t *testing.T, row VerifiedRerouteRow) {
	t.Helper()
	if !row.Exact {
		t.Fatalf("seed %d: localization not exact", row.Seed)
	}
	if row.Rejected < 1 || row.Repaired < 1 {
		t.Fatalf("seed %d: rejected=%d repaired=%d, want the loop rejected and repaired",
			row.Seed, row.Rejected, row.Repaired)
	}
	if row.Fallbacks != 0 {
		t.Fatalf("seed %d: %d unverified fallback commits in a healthy gate", row.Seed, row.Fallbacks)
	}
	if row.Unsafe != 0 {
		t.Fatalf("seed %d: %d unsafe atoms committed", row.Seed, row.Unsafe)
	}
	if row.RepairTTL <= 0 {
		t.Fatalf("seed %d: no repair commit observed", row.Seed)
	}
	if row.Delivered == 0 {
		t.Fatalf("seed %d: repaired detour delivered nothing", row.Seed)
	}
}

// TestVerifiedRerouteSoakSeeds drives the verified chaos trial over a seed
// batch. The default batch rides along in regular CI; nightly widens it via
// FANCY_VERIFY_SOAK_RUNS (with the race detector). Deterministic per seed.
func TestVerifiedRerouteSoakSeeds(t *testing.T) {
	runs := 6
	if v := os.Getenv("FANCY_VERIFY_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad FANCY_VERIFY_SOAK_RUNS=%q: %v", v, err)
		}
		runs = n
	}
	for i := 0; i < runs; i++ {
		seed := int64(7000 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			assertVerifiedRow(t, verifiedChaosTrial(seed, 4*sim.Second, true).row())
		})
	}
}

// TestFleetAbileneVerified: single-failure sweeps must be unharmed by the
// gate — same exact localization, every protected entry still diverted.
func TestFleetAbileneVerified(t *testing.T) {
	r := FleetAbileneWorkers(Quick, 20220822, true, 1)
	if !r.Verified {
		t.Fatal("result not flagged verified")
	}
	for _, row := range r.Rows {
		if !row.Exact {
			t.Fatalf("%s: localization regression under the gate", row.Link)
		}
		if row.Protected && !row.Rerouted {
			t.Fatalf("%s: gate blocked a safe reroute", row.Link)
		}
	}
	if !strings.Contains(r.Render(), "verified gate") {
		t.Fatal("render does not flag the gate")
	}
}

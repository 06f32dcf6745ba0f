package topo

import (
	"go/build"
	"slices"
	"testing"
)

// TestDoesNotImportFancy keeps topo to topology and routing: the detector
// sits above it, and internal/fleet is the one place that deploys it on a
// Network, so nothing here may reach for it.
func TestDoesNotImportFancy(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pkg.Imports, "fancy/internal/fancy") {
		t.Fatalf("internal/topo imports fancy/internal/fancy: %v", pkg.Imports)
	}
}

package mgmt

import (
	"go/build"
	"slices"
	"testing"
)

// TestDoesNotImportNetsim keeps the management transport independent of the
// data plane: partitions and seeded weather are all it models, so nothing
// here may reach for the packet simulator.
func TestDoesNotImportNetsim(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pkg.Imports, "fancy/internal/netsim") {
		t.Fatalf("internal/mgmt imports fancy/internal/netsim: %v", pkg.Imports)
	}
}

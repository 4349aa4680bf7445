package backend

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the conformance golden table")

// conformance is the harness at its defaults, run once for all tests.
var conformance = sync.OnceValues(func() (*Conformance, error) { return RunConformance(Scenario{}) })

// TestConformance runs the full differential harness — every algorithm's
// packet run against its fluid equilibrium — and requires (a) every row
// within its tolerance band and (b) the formatted table byte-identical to
// the committed golden, which CI diffs.
func TestConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance harness runs minutes of simulated time; skipped in -short")
	}
	c, err := conformance()
	if err != nil {
		t.Fatalf("RunConformance: %v", err)
	}
	got := c.Format()
	t.Logf("conformance table:\n%s", got)
	if !c.OK() {
		t.Errorf("conformance rows outside tolerance:\n%s", got)
	}

	golden := filepath.Join("testdata", "conformance_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("conformance table drifted from golden.\ngot:\n%s\nwant:\n%s\nIf the change is intended, regenerate with: go test ./internal/backend -run TestConformance -update", got, want)
	}
}

// TestConformanceShiftMovesShare spot-checks the traffic-shifting property
// directly: under cross traffic on path1, both the fluid and the packet
// DTS shares on path0 must exceed the clean-scenario shares.
func TestConformanceShiftMovesShare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the harness scenarios; skipped in -short")
	}
	c, err := conformance()
	if err != nil {
		t.Fatal(err)
	}
	var clean, shifted *ConfRow
	for i := range c.Rows {
		switch c.Rows[i].Algorithm {
		case "dts":
			clean = &c.Rows[i]
		case "dts-shift":
			shifted = &c.Rows[i]
		}
	}
	if clean == nil || shifted == nil {
		t.Fatal("harness lost its dts rows")
	}
	if shifted.PacketShare[0] <= clean.PacketShare[0] {
		t.Errorf("packet DTS did not shift toward the clean path: %.3f -> %.3f",
			clean.PacketShare[0], shifted.PacketShare[0])
	}
	if shifted.FluidShare[0] <= clean.FluidShare[0] {
		t.Errorf("fluid DTS did not shift toward the clean path: %.3f -> %.3f",
			clean.FluidShare[0], shifted.FluidShare[0])
	}
}

// TestEnginesMatchConformanceGolden holds the public engines to the
// harness's rows: what the harness attaches to a run (the FailFast invariant
// checker) observes without perturbing, so for every row without a priced
// link — the shifting row included, which is Scenario.Load — PacketEngine
// reproduces the packet columns and FluidEngine, at the packet run's
// operating point, the fluid columns — exactly, not within a band. The
// golden's validation thereby transfers to the Engine seam.
func TestEnginesMatchConformanceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon packet runs")
	}
	c, err := conformance()
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range confSpecs() {
		if spec.price != 0 {
			continue // the one row the Scenario surface cannot express
		}
		row := c.Rows[i]
		t.Run(spec.name, func(t *testing.T) {
			sc := spec.scenario(Scenario{})
			pkt, err := PacketEngine{}.Run(context.Background(), sc)
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			sc.Op = &pkt.Op
			model, err := FluidEngine{}.Run(context.Background(), sc)
			if err != nil {
				t.Fatalf("fluid: %v", err)
			}
			for r := range row.PacketShare {
				if pkt.Shares[r] != row.PacketShare[r] || model.Shares[r] != row.FluidShare[r] {
					t.Errorf("path %d: engines give packet %v fluid %v, harness row %v %v",
						r, pkt.Shares[r], model.Shares[r], row.PacketShare[r], row.FluidShare[r])
				}
			}
		})
	}
}

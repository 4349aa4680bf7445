package backend

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"
)

// documentedGrid is the grid `mptcp-bench -sweep -loads 0:0.15:28` solves,
// fluid side only: DefaultSweepSpec's 4 topologies × 9 algorithms × 28
// loads, 1008 points.
func documentedGrid() SweepSpec {
	spec := DefaultSweepSpec()
	spec.Loads = make([]float64, 28)
	for i := range spec.Loads {
		spec.Loads[i] = 0.15 * float64(i) / 27 // parseLoads' lo + (hi−lo)·i/(n−1)
	}
	spec.Backend, spec.Workers = "fluid", 1
	return spec
}

// TestFluidGridPinned pins every fluid answer of the documented grid by
// identity: the SHA-256 of each point's ID, Converged flag and per-path
// rates in hex float form. The hash was recorded at the commit before the
// Kelly price was computed by powExact, ψ's views were memoised per rate
// vector, the engine's source was seeded lazily and a solve's RK4 stages were
// shared across its batches; the test passes there unedited. A change to the
// solver's arithmetic that moves one bit of one rate fails it.
func TestFluidGridPinned(t *testing.T) {
	res, err := Sweep(context.Background(), documentedGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1008 {
		t.Fatalf("%d points, want 1008", len(res.Points))
	}
	h := sha256.New()
	for _, p := range res.Points {
		fmt.Fprintf(h, "%s %v", p.ID(), p.Fluid.Converged)
		for _, r := range p.Fluid.RateBps {
			fmt.Fprintf(h, " %s", strconv.FormatFloat(r, 'x', -1, 64))
		}
		fmt.Fprintln(h)
	}
	const want = "dc35715a2727df6926086d7bf928693becc94dc734764018277dfe03b4fd9854"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("fluid grid moved: sha256 %s, want %s", got, want)
	}
}

// BenchmarkFluidPoint is one fluid point on each default topology for three
// algorithms at load 0.1: topology build, operating point and solve.
func BenchmarkFluidPoint(b *testing.B) {
	spec := DefaultSweepSpec()
	for _, topology := range spec.Topologies {
		for _, alg := range []string{"lia", "olia", "dts"} {
			sc := Point{Topology: topology, Algorithm: alg, Load: 0.1}.Scenario(spec)
			b.Run(topology+"/"+alg, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := (FluidEngine{}).Run(context.Background(), sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

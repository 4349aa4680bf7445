package backend

import (
	"context"
	"fmt"
	"math"
	"strings"

	"mptcpsim/internal/core"
	"mptcpsim/internal/obsv"
)

// The differential-conformance harness: for every multipath algorithm it
// runs the asymmetric two-path scenario ("twopath-asym": 2:1 capacity so
// the equilibrium shares are distinguishable from an even split, equal
// propagation delays so capacity — not RTT bias — drives the split) on the
// packet stack, solves the Eq. 3 fluid model at the packet run's measured
// operating point, and compares the per-path throughput shares. Both sides
// are the engines' own code (runPacket, solveFluid), so agreement within
// each row's tolerance band is the evidence that the packet-level
// implementations follow the model they claim to implement and that the
// fluid engine answers with a validated model. See EXPERIMENTS.md,
// "Validation methodology".

// confSpec is one row: a scenario on the conformance topology plus the
// tolerance band it must land in.
type confSpec struct {
	name string // row label
	alg  string // registry name (defaults to name)
	tol  float64

	// load is Scenario.Load: CBR cross traffic on path1, as a fraction of
	// its capacity.
	load float64

	// price, when non-zero, is the Eq. 6 price ρ a packet of path0 picks up
	// in the packet run — charged half on each of its two forward hops, the
	// Scenario's per-hop form — and the fluid side carries the matching
	// compensative term φ_0 = κ·ρ·x_0² (Eq. 9 converted to rate form).
	price float64
}

// scenario is the row as a Scenario, taking Seed, Horizon and Warmup from
// base.
func (s confSpec) scenario(base Scenario) Scenario {
	sc := Scenario{
		Topology: "twopath-asym", Algorithm: s.name, Load: s.load, EnergyModel: "none",
		Seed: base.Seed, Horizon: base.Horizon, Warmup: base.Warmup,
	}
	if s.alg != "" {
		sc.Algorithm = s.alg
	}
	if s.price != 0 {
		sc.Price = &Price{Path: 0, Rho: s.price / 2}
	}
	return sc
}

func confSpecs() []confSpec {
	return []confSpec{
		{name: "ewtcp", tol: 0.10},
		{name: "coupled", tol: 0.10},
		{name: "lia", tol: 0.10},
		{name: "olia", tol: 0.10},
		{name: "balia", tol: 0.10},
		{name: "cubic", tol: 0.10},
		{name: "wvegas", tol: 0.10},
		{name: "vegas", tol: 0.10},
		{name: "dts", tol: 0.10},
		{name: "dtsep", tol: 0.10, price: 1},
		// dts-shift: DTS with cross traffic on path1 — the traffic-shifting
		// scenario — at half of path1's capacity. Loading the path much
		// harder starves it entirely in the fluid model (rates can fall to
		// zero there), while a packet subflow never drops below one segment
		// per RTT: the comparison is only meaningful while both sides keep
		// the path alive. Wider band than the clean rows: the fluid model
		// treats cross traffic as an unresponsive constant load, but in the
		// packet scenario the DropTail queue drops CBR packets too, which
		// leaves the subflow a larger share than Eq. 3 predicts. The shifting
		// DIRECTION is asserted exactly (TestConformanceShiftMovesShare); the
		// magnitude gets the 0.15 band.
		{name: "dts-shift", alg: "dts", tol: 0.15, load: 0.5},
	}
}

// ConfRow is one algorithm's conformance verdict.
type ConfRow struct {
	Algorithm   string
	FluidShare  [2]float64 // per-path share of the fluid equilibrium
	PacketShare [2]float64 // per-path share measured in the packet run
	Delta       float64    // max |fluid − packet| over the two paths
	Tol         float64    // documented tolerance band
	Converged   bool       // fluid solve reached equilibrium
	OK          bool
}

// Conformance is the harness result: one row per algorithm plus the DTS
// traffic-shifting row.
type Conformance struct {
	Rows []ConfRow
}

// OK reports whether every row passed.
func (c *Conformance) OK() bool {
	for _, r := range c.Rows {
		if !r.OK {
			return false
		}
	}
	return true
}

// RunConformance runs the full differential harness. Only base's Seed,
// Horizon and Warmup are read; their zero values take the Scenario
// defaults, which are what the committed golden was generated with.
func RunConformance(base Scenario) (*Conformance, error) {
	ctx := context.Background()
	out := &Conformance{}
	for _, spec := range confSpecs() {
		sc := spec.scenario(base)
		pkt, err := runPacket(ctx, sc, obsv.CheckFailFast, nil)
		if err != nil {
			return nil, fmt.Errorf("conformance %s: %w", spec.name, err)
		}
		var phi func(x []float64, r int) float64
		if spec.price != 0 {
			phi = func(x []float64, r int) float64 {
				if r != 0 {
					return 0
				}
				return core.DefaultKappa * spec.price * x[0] * x[0]
			}
		}
		sc.Op = &pkt.Op
		model, err := solveFluid(ctx, sc, phi)
		if err != nil {
			return nil, fmt.Errorf("conformance %s: %w", spec.name, err)
		}
		row := ConfRow{
			Algorithm:   spec.name,
			FluidShare:  [2]float64{model.Shares[0], model.Shares[1]},
			PacketShare: [2]float64{pkt.Shares[0], pkt.Shares[1]},
			Delta:       shareDelta(model.Shares, pkt.Shares),
			Tol:         spec.tol,
			Converged:   model.Converged,
		}
		row.OK = row.Converged && row.Delta <= row.Tol
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// shareDelta is the largest per-path disagreement between two share
// vectors.
func shareDelta(a, b []float64) float64 {
	var max float64
	for r := range a {
		if d := math.Abs(a[r] - b[r]); d > max {
			max = d
		}
	}
	return max
}

// Format renders the conformance table — the artifact CI diffs against the
// committed golden, so it is deliberately plain and byte-stable.
func (c *Conformance) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s %7s %6s  %s\n",
		"algorithm", "fluid0", "fluid1", "pkt0", "pkt1", "delta", "tol", "status")
	for _, r := range c.Rows {
		status := "ok"
		if !r.Converged {
			status = "no-converge"
		} else if !r.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%-10s %8.3f %8.3f %8.3f %8.3f %7.3f %6.2f  %s\n",
			r.Algorithm, r.FluidShare[0], r.FluidShare[1],
			r.PacketShare[0], r.PacketShare[1], r.Delta, r.Tol, status)
	}
	return sb.String()
}

package fluid

import (
	"math"

	"mptcpsim/internal/core"
)

// This file maps the registered congestion-control algorithms onto Eq. 3
// instances. It is the single source of that mapping: the conformance
// validator (internal/check) and the fluid backend engine
// (internal/backend) both build their Systems through ModelFor, so the
// validated model and the model answering sweeps are the same code.

// AlgModel describes how one algorithm enters the fluid model. Exactly one
// of Psi and Oracle is set.
type AlgModel struct {
	// Psi builds the traffic-shifting parameter ψ_r from the operating
	// point — per-path RTTs (seconds) and baseRTT/RTT fractions, measured
	// in a packet run (internal/check) or estimated from the topology
	// (internal/backend), which must not change afterwards. The returned
	// closure is System.Psi; it owns scratch state, so build one per System
	// and evaluate a System from one goroutine.
	Psi func(rtt, frac []float64) func(x []float64, r int) float64

	// Oracle, for delay-based algorithms that the Kelly loss price cannot
	// model (the Vegas family holds per-path backlog below the loss knee
	// instead of probing for it), returns the expected equilibrium shares
	// directly: the free-capacity split over the paths.
	Oracle func(paths []Path) []float64
}

// ModelFor returns the fluid mapping for a registered algorithm name.
// ok = false means the algorithm has no fluid counterpart (DCTCP — its
// equilibrium is set by the ECN marking threshold, which the Kelly price
// does not represent) and only the packet backend can answer for it.
func ModelFor(alg string) (AlgModel, bool) {
	switch alg {
	case "ewtcp":
		return AlgModel{Psi: uniformPsi(core.PsiEWTCP)}, true
	case "coupled":
		return AlgModel{Psi: uniformPsi(core.PsiCoupled)}, true
	case "lia":
		return AlgModel{Psi: uniformPsi(core.PsiLIA)}, true
	case "olia":
		return AlgModel{Psi: uniformPsi(core.PsiOLIA)}, true
	case "balia":
		return AlgModel{Psi: uniformPsi(core.PsiBalia)}, true
	case "ecmtcp":
		return AlgModel{Psi: uniformPsi(core.PsiECMTCP)}, true
	case "cubic", "reno":
		// Uncoupled loss-based laws: on disjoint DropTail bottlenecks any
		// of them settles at the capacity split — ψ_r = (Σx)²/x_r² models n
		// independent flows; the window-law details shift the loss rate,
		// not the equilibrium share.
		return AlgModel{Psi: uniformPsi(core.PsiUncoupled)}, true
	case "dts", "dtsep":
		// ψ_r = c·ε_r with c = 1 (Eq. 5); dtsep's compensative term is a
		// property of the scenario's link prices, not of ψ, and enters the
		// System through Phi (see internal/check's dtsep row).
		return AlgModel{Psi: epsPsi(core.EpsExact)}, true
	case "dts-taylor":
		// The kernel port's fixed-point ε (third-order Taylor, values
		// scaled by 100).
		return AlgModel{Psi: epsPsi(func(ratio float64) float64 {
			return float64(core.EpsTaylor(int64(math.Round(ratio*100)))) / 100
		})}, true
	case "dts-lia", "dtsep-lia":
		// Modified LIA: LIA's coupled ψ scaled by the Eq. 5 delay factor.
		return AlgModel{Psi: func(rtt, frac []float64) func(x []float64, r int) float64 {
			eps := epsPsi(core.EpsExact)(rtt, frac)
			lia := uniformPsi(core.PsiLIA)(rtt, frac)
			return func(x []float64, r int) float64 {
				return eps(x, r) * lia(x, r)
			}
		}}, true
	case "wvegas", "vegas":
		return AlgModel{Oracle: FreeCapacityShares}, true
	default:
		return AlgModel{}, false
	}
}

// uniformPsi adapts a §IV ψ decomposition (core.ParamFunc) into an
// operating-point-parameterized System.Psi. The views the decomposition
// reads are refilled in place on every evaluation: one scratch slice per
// closure, nothing allocated per derivative.
func uniformPsi(fn core.ParamFunc) func(rtt, frac []float64) func(x []float64, r int) float64 {
	return func(rtt, frac []float64) func(x []float64, r int) float64 {
		views := make([]core.View, len(rtt))
		return func(x []float64, r int) float64 {
			fillViews(views, x, rtt, frac)
			return fn(views, r)
		}
	}
}

// epsPsi builds ψ_r = ε(baseRTT_r/RTT_r) for the DTS family from an ε
// evaluator. ε depends on the operating point alone, so it is evaluated
// once per path here, not once per derivative.
func epsPsi(eps func(ratio float64) float64) func(rtt, frac []float64) func(x []float64, r int) float64 {
	return func(rtt, frac []float64) func(x []float64, r int) float64 {
		e := make([]float64, len(frac))
		for r, f := range frac {
			e[r] = eps(f)
		}
		return func(x []float64, r int) float64 {
			return e[r]
		}
	}
}

// fillViews synthesizes core.Views from a fluid rate vector at per-path RTTs
// and baseRTT/RTT fractions, so the packet-level ψ decompositions in
// internal/core can drive the fluid model. views must be len(x) long.
func fillViews(views []core.View, x, rtt, frac []float64) {
	for r := range x {
		views[r] = core.View{
			Cwnd:    x[r] * rtt[r],
			SRTT:    rtt[r],
			LastRTT: rtt[r],
			BaseRTT: rtt[r] * frac[r],
		}
	}
}

// FreeCapacityShares is the oracle for the Vegas family on disjoint
// bottlenecks: each path carries its share of the free (cross-traffic-
// discounted) capacity.
func FreeCapacityShares(paths []Path) []float64 {
	shares := make([]float64, len(paths))
	var total float64
	for r, p := range paths {
		free := p.Capacity - p.Cross
		if free < 0 {
			free = 0
		}
		shares[r] = free
		total += free
	}
	if total <= 0 {
		return shares
	}
	for r := range shares {
		shares[r] /= total
	}
	return shares
}

package fluid

import (
	"math"

	"mptcpsim/internal/core"
)

// This file turns a registered algorithm's Eq. 3 description (core.Entry)
// into something a System can evaluate. The conformance harness and the
// fluid backend engine (internal/backend) both build their Systems through
// ModelFor, so the validated model and the model answering sweeps are the
// same code.

// AlgModel describes how one algorithm enters the fluid model. Exactly one
// of Psi and Oracle is set.
type AlgModel struct {
	// Psi builds the traffic-shifting parameter ψ_r from the operating
	// point — per-path RTTs (seconds) and baseRTT/RTT fractions, measured
	// in a packet run or estimated from the topology, which must not
	// change afterwards. The returned closure is System.Psi; it owns
	// scratch state, so build one per System and evaluate a System from one
	// goroutine.
	Psi func(rtt, frac []float64) func(x []float64, r int) float64

	// Oracle, for the delay-based algorithms (core.Entry.Delay), returns
	// the expected equilibrium shares directly: the free-capacity split
	// over the paths.
	Oracle func(paths []Path) []float64
}

// ModelFor returns the fluid mapping of a registered algorithm, built from
// its core.Entry. ok = false means the name is unknown or the entry says
// the algorithm has no fluid counterpart (Entry.NoModel) and only the
// packet backend can answer for it.
func ModelFor(alg string) (AlgModel, bool) {
	e, ok := core.Lookup(alg)
	switch {
	case !ok || e.NoModel != "":
		return AlgModel{}, false
	case e.Delay:
		return AlgModel{Oracle: FreeCapacityShares}, true
	case e.Eps == nil:
		return AlgModel{Psi: uniformPsi(e.Psi)}, true
	case e.Psi == nil:
		return AlgModel{Psi: epsPsi(e.Eps)}, true
	}
	return AlgModel{Psi: func(rtt, frac []float64) func(x []float64, r int) float64 {
		eps := epsPsi(e.Eps)(rtt, frac)
		psi := uniformPsi(e.Psi)(rtt, frac)
		return func(x []float64, r int) float64 {
			return eps(x, r) * psi(x, r)
		}
	}}, true
}

// uniformPsi adapts a §IV ψ decomposition (core.ParamFunc) into an
// operating-point-parameterized System.Psi. The views the decomposition
// reads live in one scratch slice per closure, refilled in place only when
// x differs from the rate vector they were last filled at: Derivative's n
// calls at one x fill them once. The comparison is on bits, not ==, so
// that −0 and +0, which give different views, are told apart and a NaN
// matches itself; it is on values, not the slice, so x may be mutated in
// place between calls.
func uniformPsi(fn core.ParamFunc) func(rtt, frac []float64) func(x []float64, r int) float64 {
	return func(rtt, frac []float64) func(x []float64, r int) float64 {
		views := make([]core.View, len(rtt))
		var filledAt []float64 // nil before the first call
		return func(x []float64, r int) float64 {
			if !sameBits(filledAt, x) {
				fillViews(views, x, rtt, frac)
				filledAt = append(filledAt[:0], x...)
			}
			return fn(views, r)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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

package core

import "math"

// DTS is the paper's contribution: Delay-based Traffic Shifting (§V-B,
// Algorithm 1). The traffic-shifting parameter is ψ_r = c·ε_r with
//
//	ε_r = 2 / (1 + e^{−10·(baseRTT_r/RTT_r − 1/2)})        (Eq. 5)
//
// an increasing logistic function of baseRTT_r/RTT_r: a path whose RTT is
// inflated by queueing (ratio → 0) gets ε→0 and stops growing, while a
// recovering low-delay path (ratio → 1) grows with ε→2. With c = 1 and
// E[baseRTT/RTT] = 1/2, ψ satisfies the TCP-friendliness condition
// (Condition 1) in expectation.
//
// Per ACK on path r (derived from Eq. 3 exactly as Algorithm 1 states):
//
//	w_r += c·ε_r · (w_r/RTT_r²) / (Σ_k w_k/RTT_k)²
//
// and each loss halves the subflow window (β = 1/2).

// EpsExact evaluates Eq. 5 at ratio = baseRTT_r/RTT_r in floating point.
func EpsExact(ratio float64) float64 {
	if ratio < 0 {
		ratio = 0
	} else if ratio > 1 {
		ratio = 1
	}
	return 2 / (1 + math.Exp(-10*(ratio-0.5)))
}

// EpsTaylor evaluates Eq. 5 the way Algorithm 1's kernel implementation
// does: integer fixed-point arithmetic with a third-order Taylor expansion
// of e^x around 0, all values scaled by 100. ratioPct is
// 100·baseRTT_r/RTT_r. The approximation is accurate near ratio = 1/2 and
// intentionally saturates outside (the kernel clamps negative numerators).
func EpsTaylor(ratioPct int64) int64 {
	if ratioPct < 0 {
		ratioPct = 0
	} else if ratioPct > 100 {
		ratioPct = 100
	}
	// x = 10·ratio − 5, carried in tenths: p = 10·ratioPct/100 − 5 = x.
	// numerator = 100·e^x ≈ 100 + 100x + 50x² + 17x³ (integer, x in units).
	x := (ratioPct - 50) / 10 // integer part of x in [-5, 5]
	frac := (ratioPct - 50) % 10
	// Work in hundredths to keep the fractional part of x: X = 100·x.
	X := x*100 + frac*10
	num := 100 + X + 50*X*X/10000 + 17*X*X*X/1000000
	if num < 0 {
		num = 0
	}
	den := 100 + num
	return 2 * 100 * num / den // ε scaled by 100
}

// epsTaylorAt is EpsTaylor on a floating-point ratio, as a drop-in for
// EpsExact.
func epsTaylorAt(ratio float64) float64 {
	return float64(EpsTaylor(int64(math.Round(ratio*100)))) / 100
}

// DefaultKappa is the default weight κ_s of the energy price in the
// extended algorithm (Eq. 9), calibrated so the compensative term bends the
// equilibrium without starving subflows.
const DefaultKappa = 2e-4

// DTS implements the Delay-based Traffic Shifting family. The zero variant
// is §V-B's algorithm; the fields select the registered variants, each
// stated explicitly so a run's name and series set do not depend on a
// parameter's value (an ablation may run the priced variant at κ = 0).
type DTS struct {
	// C is the Pareto-optimality constant c in ψ_r = c·ε_r. The paper picks
	// c = 1 so the fairness condition also holds. The LIA variant's
	// aggressiveness is LIA's α and ignores it.
	C float64

	// Taylor evaluates ε_r with the kernel's integer approximation instead
	// of the exact logistic (the ablation of Algorithm 1's fixed-point
	// port).
	Taylor bool

	// LIA selects the "Modified LIA" variant the paper's kernel experiments
	// plot (Fig. 8): LIA's coupled increase scaled by the Eq. 5 delay
	// factor, w_r += ε_r·min(α/w_total, 1/w_r) per ACK. §V-B's ψ = c·ε
	// reading replaces LIA's ψ entirely; this variant instead composes ε
	// with LIA's aggressiveness, which preserves LIA's strong loss-based
	// shifting — the property the paper highlights in Fig. 7 — while ε
	// steers traffic off delay-inflated paths. EXPERIMENTS.md compares the
	// two.
	LIA bool
	lia LIA

	// Priced selects the extended algorithm of §V-C: Eq. 9 adds the
	// compensative term φ_r = κ_s·x_r²·∂U_ep/∂x_r to the window evolution,
	// where U_ep (Eq. 6) prices traffic on switch-to-switch links
	// proportionally to their energy cost ρ and queue excess. Links
	// accumulate that price on data packets in transit and receivers echo
	// it on ACKs; converted per ACK the term is a decrement
	// Kappa·w_r·price_r.
	Priced bool
	Kappa  float64
}

// Name implements Algorithm.
func (d *DTS) Name() string {
	switch {
	case d.Priced && d.LIA:
		return "dtsep-lia"
	case d.Priced:
		return "dtsep"
	case d.LIA:
		return "dts-lia"
	case d.Taylor:
		return "dts-taylor"
	}
	return "dts"
}

// rttRatio returns baseRTT_r/RTT_r using the latest sample, as Algorithm 1
// does with current_rtt.
func rttRatio(f View) float64 {
	rtt := f.LastRTT
	if rtt <= 0 {
		rtt = f.SRTT
	}
	if rtt <= 0 || f.BaseRTT <= 0 {
		return 1
	}
	r := f.BaseRTT / rtt
	if r > 1 {
		r = 1
	}
	return r
}

// Eps returns the ε_r value DTS would use for subflow state f.
func (d *DTS) Eps(f View) float64 {
	ratio := rttRatio(f)
	if d.Taylor {
		return epsTaylorAt(ratio)
	}
	return EpsExact(ratio)
}

// Increase implements Algorithm: the variant's increase, minus the per-ACK
// compensative term when priced.
func (d *DTS) Increase(flows []View, r int) float64 {
	f := flows[r]
	var inc float64
	if d.LIA {
		inc = d.Eps(f) * d.lia.Increase(flows, r)
	} else if f.SRTT > 0 {
		if sum := SumRates(flows); sum > 0 {
			inc = d.C * d.Eps(f) * f.Cwnd / (f.SRTT * f.SRTT * sum * sum)
		}
	}
	if d.Priced {
		inc -= d.Kappa * f.Cwnd * f.Price
	}
	return inc
}

// Decrease implements Algorithm.
func (*DTS) Decrease(flows []View, r int) float64 { return flows[r].Cwnd / 2 }

// Introspect implements Introspector: the Eq. 5 components driving subflow
// r's window growth — the RTT ratio, ε_r and the factor it scales (c, as
// ψ_r = c·ε_r, or the LIA increase) — plus, when priced, the echoed path
// price and the per-ACK compensative decrement φ_r it induces.
func (d *DTS) Introspect(flows []View, r int, out map[string]float64) {
	f := flows[r]
	eps := d.Eps(f)
	out["rtt_ratio"] = rttRatio(f)
	out["eps"] = eps
	if d.LIA {
		out["lia_inc"] = d.lia.Increase(flows, r)
	} else {
		out["psi"] = d.C * eps
	}
	if d.Priced {
		out["price"] = f.Price
		out["phi"] = d.Kappa * f.Cwnd * f.Price
	}
}

var (
	_ Algorithm    = (*DTS)(nil)
	_ Introspector = (*DTS)(nil)
)

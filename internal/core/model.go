package core

import "math"

// This file implements Eq. 3 of the paper — the general fluid model
//
//	dx_r/dt = ψ_r(x_s)·x_r² / (RTT_r²·(Σ_k x_k)²) − β_r(x_s)·λ_r·x_r² − φ_r(x_s)
//
// as an executable window-evolution policy, plus the ψ_r decompositions of
// the existing algorithms the paper derives in §IV.
//
// Conversion from fluid to per-ACK form: with x_r = w_r/RTT_r and ACKs
// arriving at rate x_r, the per-ACK window increment is (dw_r/dt)/x_r =
// ψ_r·w_r / (RTT_r²·(Σ_k x_k)²), exactly the update in Algorithm 1. The
// loss term β_r·λ_r·x_r² corresponds to a multiplicative decrease
// w_r ← (1−β_r)·w_r per loss event, and the compensative term φ_r to a
// per-ACK decrement RTT_r·φ_r/x_r.

// ParamFunc evaluates one of the model parameters (ψ, β) for subflow r.
type ParamFunc func(flows []View, r int) float64

// Model is an Eq. 3 instance. Psi is required; Beta defaults to the TCP
// standard 1/2 (Condition 1); PhiPerAck defaults to zero. PhiPerAck is the
// compensative term already converted to a per-ACK window decrement.
type Model struct {
	ModelName string
	Psi       ParamFunc
	Beta      ParamFunc
	PhiPerAck ParamFunc
}

var _ Algorithm = (*Model)(nil)

// Name implements Algorithm.
func (m *Model) Name() string { return m.ModelName }

// Increase implements Algorithm with the per-ACK form of Eq. 3.
func (m *Model) Increase(flows []View, r int) float64 {
	f := flows[r]
	sum := SumRates(flows)
	if f.SRTT <= 0 || sum <= 0 {
		return 0
	}
	inc := m.Psi(flows, r) * f.Cwnd / (f.SRTT * f.SRTT * sum * sum)
	if m.PhiPerAck != nil {
		inc -= m.PhiPerAck(flows, r)
	}
	return inc
}

// Decrease implements Algorithm: w_r ← (1−β_r)·w_r.
func (m *Model) Decrease(flows []View, r int) float64 {
	beta := 0.5
	if m.Beta != nil {
		beta = m.Beta(flows, r)
	}
	return flows[r].Cwnd * (1 - beta)
}

// The ψ_r decompositions of §IV. Each, fed through Model, reproduces the
// corresponding algorithm's congestion-avoidance increase (without the
// per-ACK caps some RFC implementations add; see the equivalence tests).

// PsiOLIA is ψ_r = 1 (the OLIA increase without its α_r shifting term).
func PsiOLIA(flows []View, r int) float64 { return 1 }

// PsiEWTCP is ψ_r = (Σ_k x_k)² / (x_r²·√n): per-ack increase a/w_r with
// a = 1/√n.
func PsiEWTCP(flows []View, r int) float64 {
	x := flows[r].Rate()
	if x <= 0 {
		return 0
	}
	sum := SumRates(flows)
	n := float64(len(flows))
	return sum * sum / (x * x * math.Sqrt(n))
}

// PsiCoupled is ψ_r = RTT_r²·(Σ_k x_k)² / (Σ_k w_k)²: per-ack increase
// 1/w_total.
func PsiCoupled(flows []View, r int) float64 {
	f := flows[r]
	sum := SumRates(flows)
	wTotal := SumCwnd(flows)
	if wTotal <= 0 {
		return 0
	}
	return f.SRTT * f.SRTT * sum * sum / (wTotal * wTotal)
}

// PsiLIA is ψ_r = max_k(w_k/RTT_k²)·RTT_r²/w_r: per-ack increase
// α/w_total with the RFC 6356 α (before the min(·, 1/w_r) cap).
func PsiLIA(flows []View, r int) float64 {
	f := flows[r]
	if f.Cwnd <= 0 {
		return 0
	}
	var maxTerm float64
	for _, k := range flows {
		if k.SRTT <= 0 {
			continue
		}
		if t := k.Cwnd / (k.SRTT * k.SRTT); t > maxTerm {
			maxTerm = t
		}
	}
	return maxTerm * f.SRTT * f.SRTT / f.Cwnd
}

// PsiECMTCP is ψ_r = RTT_r³·(Σ_k x_k)² / (n·min_k RTT_k·w_r·Σ_k w_k),
// the paper's decomposition of ecMTCP's traffic-shifting increase.
func PsiECMTCP(flows []View, r int) float64 {
	f := flows[r]
	if f.Cwnd <= 0 {
		return 0
	}
	minRTT := 0.0
	for _, k := range flows {
		if k.SRTT > 0 && (minRTT == 0 || k.SRTT < minRTT) {
			minRTT = k.SRTT
		}
	}
	if minRTT == 0 {
		return 0
	}
	sum := SumRates(flows)
	n := float64(len(flows))
	wTotal := SumCwnd(flows)
	if wTotal <= 0 {
		return 0
	}
	return f.SRTT * f.SRTT * f.SRTT * sum * sum / (n * minRTT * f.Cwnd * wTotal)
}

// PsiBalia is the ψ_r that makes Eq. 3 reproduce Balia's increase:
// ψ_r = ((1+α_r)/2)·((4+α_r)/5) with α_r = max_k x_k / x_r.
func PsiBalia(flows []View, r int) float64 {
	a := baliaAlpha(flows, r)
	return (1 + a) / 2 * (4 + a) / 5
}

// PsiUncoupled is ψ_r = (Σ_k x_k)² / x_r²: per-ack increase 1/w_r on every
// subflow independently — n uncoupled TCP flows. This is the fluid stand-in
// for the per-subflow CUBIC family: at a DropTail equilibrium the loss rate
// adjusts so each uncoupled flow holds its fair share of its bottleneck
// regardless of how aggressively it probes, which is exactly the capacity
// split the conformance harness checks.
func PsiUncoupled(flows []View, r int) float64 {
	x := flows[r].Rate()
	if x <= 0 {
		return 0
	}
	sum := SumRates(flows)
	return sum * sum / (x * x)
}

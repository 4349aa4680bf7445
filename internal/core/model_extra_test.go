package core

import (
	"math"
	"testing"
	"testing/quick"
)

// ecMTCP's psi shifts RATE toward low-RTT (low-energy) paths: the
// per-ACK window increment can be larger on the slow path (RTT_r^3
// numerator), but in rate space — increment x ACK-rate / RTT, the fluid
// dx/dt — the fast path grows faster.
func TestPsiECMTCPFavorsLowRTTPath(t *testing.T) {
	m := &Model{ModelName: "ecmtcp", Psi: PsiECMTCP}
	flows := []View{v(20, 0.02), v(20, 0.1)}
	rateGrowth := func(r int) float64 {
		return m.Increase(flows, r) * flows[r].Rate() / flows[r].SRTT
	}
	if fast, slow := rateGrowth(0), rateGrowth(1); fast <= slow {
		t.Errorf("ecMTCP rate growth on fast path (%v) not above slow path (%v)", fast, slow)
	}
}

func TestPsiECMTCPDegenerateStates(t *testing.T) {
	if got := PsiECMTCP([]View{{Cwnd: 0, SRTT: 0.1}}, 0); got != 0 {
		t.Errorf("psi with zero window = %v, want 0", got)
	}
	if got := PsiECMTCP([]View{{Cwnd: 10, SRTT: 0}}, 0); got != 0 {
		t.Errorf("psi with zero RTT = %v, want 0", got)
	}
}

// Property: every psi decomposition is finite and non-negative over sane
// state space.
func TestPsiDecompositionsFiniteProperty(t *testing.T) {
	psis := map[string]ParamFunc{
		"olia":    PsiOLIA,
		"ewtcp":   PsiEWTCP,
		"coupled": PsiCoupled,
		"lia":     PsiLIA,
		"ecmtcp":  PsiECMTCP,
		"balia":   PsiBalia,
		"dts":     func(flows []View, r int) float64 { return EpsExact(rttRatio(flows[r])) },
	}
	f := func(w1, w2, w3 uint8, r1, r2, r3 uint8) bool {
		flows := []View{
			v(float64(w1%120)+1, float64(r1%150+1)/1000),
			v(float64(w2%120)+1, float64(r2%150+1)/1000),
			v(float64(w3%120)+1, float64(r3%150+1)/1000),
		}
		for name, psi := range psis {
			for r := range flows {
				got := psi(flows, r)
				if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
					t.Logf("%s: psi = %v at %v", name, got, flows)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The Modified-LIA variant inherits LIA's cap: its increase never exceeds
// 2x the uncoupled 1/w (eps is bounded by 2).
func TestDTSLIABoundedByTwiceUncoupled(t *testing.T) {
	d := &DTS{C: 1, LIA: true}
	f := func(w1, w2 uint8, r1, r2 uint8) bool {
		flows := []View{
			v(float64(w1%120)+2, float64(r1%150+1)/1000),
			v(float64(w2%120)+2, float64(r2%150+1)/1000),
		}
		for r := range flows {
			if d.Increase(flows, r) > 2/flows[r].Cwnd+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDTSEPLIAPricePenalty(t *testing.T) {
	d := &DTS{C: 1, LIA: true, Priced: true, Kappa: 0.001}
	free := []View{v(10, 0.1), v(10, 0.1)}
	priced := []View{v(10, 0.1), v(10, 0.1)}
	priced[1].Price = 3
	base := &DTS{C: 1, LIA: true}
	if got, want := d.Increase(priced, 1), base.Increase(free, 1)-0.001*10*3; !almostEq(got, want, 1e-12) {
		t.Errorf("priced increase = %v, want %v", got, want)
	}
	if d.Increase(priced, 0) != base.Increase(free, 0) {
		t.Error("price on path 1 leaked into path 0")
	}
}

// wVegas rate-share weights converge toward the observed split.
func TestWVegasWeightsTrackRates(t *testing.T) {
	w := NewWVegas()
	flows := []View{v(30, 0.1), v(10, 0.1)} // 3:1 rate split
	for i := 0; i < 50; i++ {
		w.OnRound(flows, 0)
	}
	if len(w.weights) != 2 {
		t.Fatalf("weights not initialized: %v", w.weights)
	}
	if math.Abs(w.weights[0]-0.75) > 0.05 || math.Abs(w.weights[1]-0.25) > 0.05 {
		t.Errorf("weights = %v, want ~[0.75 0.25]", w.weights)
	}
}

// Condition 2 demonstrated numerically for OLIA: psi = 1 derives from the
// utility U_s = -1/(RTT_r^2 x_r) summed over paths (the known OLIA
// potential): theta_r * dU/dx_r must equal psi*x^2/(RTT^2 (sum x)^2) with
// theta_r = x_r^2 * (sum x)^2 * RTT^2 ... i.e. the defining identity holds
// with a positive theta, which is what Condition 2 requires.
func TestCondition2WitnessForOLIA(t *testing.T) {
	flows := []View{v(10, 0.05), v(30, 0.2)}
	sum := SumRates(flows)
	for r, fl := range flows {
		x := fl.Rate()
		// dU/dx_r for U = -sum_k 1/(RTT_k^2 x_k) is 1/(RTT_r^2 x_r^2) > 0.
		dU := 1 / (fl.SRTT * fl.SRTT * x * x)
		// Required: theta * dU = psi * x^2 / (RTT^2 (sum x)^2) with psi=1.
		rhs := 1 * x * x / (fl.SRTT * fl.SRTT * sum * sum)
		theta := rhs / dU
		if theta <= 0 || math.IsInf(theta, 0) || math.IsNaN(theta) {
			t.Errorf("path %d: no positive theta witness (%v)", r, theta)
		}
		// And the witness matches the paper's stated theta = x_r^2 * ... form
		// up to the (sum x)^2 normalization: theta = x^4/(sum x)^2.
		want := x * x * x * x / (sum * sum)
		if math.Abs(theta-want)/want > 1e-9 {
			t.Errorf("path %d: theta = %v, want x^4/(sum x)^2 = %v", r, theta, want)
		}
	}
}

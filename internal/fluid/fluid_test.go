package fluid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/core"
)

// renoSystem builds a single-path TCP system (ψ = (Σx)²/x² gives the
// uncoupled per-ACK 1/w; on one path that is ψ = 1).
func renoSystem(capacity float64) *System {
	s := &System{Paths: []Path{{RTT: 0.05, Capacity: capacity}}}
	s.Psi = func(x []float64, r int) float64 { return 1 }
	return s
}

func TestSinglePathEquilibriumMatchesAnalytic(t *testing.T) {
	// Setting increase = decrease for ψ=1 on one path gives
	// (x/C)^b · x² · 1/2 = x²/RTT², i.e. x* = (2·C^b / RTT²)^(1/(b+2)).
	s := renoSystem(1000)
	x, ok := s.Equilibrium([]float64{10}, 1e-3, 200000)
	if !ok {
		t.Fatalf("did not converge: %s", String(x))
	}
	b := s.priceExp()
	want := math.Pow(2*math.Pow(1000, b)/(0.05*0.05), 1/(b+2))
	if math.Abs(x[0]-want)/want > 0.02 {
		t.Errorf("equilibrium rate %.1f, analytic %.1f", x[0], want)
	}
	// And the derivative there is ~0.
	dx := make([]float64, 1)
	s.Derivative(x, dx)
	if math.Abs(dx[0]) > 1 {
		t.Errorf("derivative at equilibrium = %v", dx[0])
	}
}

func TestEquilibriumMonotoneInCapacityProperty(t *testing.T) {
	f := func(c1, c2 uint16) bool {
		lo, hi := float64(c1%2000)+100, float64(c2%2000)+100
		if lo > hi {
			lo, hi = hi, lo
		}
		xLo, ok1 := renoSystem(lo).Equilibrium([]float64{10}, 1e-3, 100000)
		xHi, ok2 := renoSystem(hi).Equilibrium([]float64{10}, 1e-3, 100000)
		return ok1 && ok2 && xLo[0] <= xHi[0]*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricLIASplitsEvenly(t *testing.T) {
	s := &System{Paths: []Path{
		{RTT: 0.04, Capacity: 800},
		{RTT: 0.04, Capacity: 800},
	}}
	s.Psi = s.FromParam(core.PsiLIA, 0.5)
	x, ok := s.Equilibrium([]float64{50, 60}, 1e-3, 400000)
	if !ok {
		t.Fatalf("did not converge: %s", String(x))
	}
	if math.Abs(x[0]-x[1]) > 0.05*(x[0]+x[1]) {
		t.Errorf("asymmetric equilibrium on symmetric paths: %s", String(x))
	}
}

func TestLIACondition1AtFluidEquilibrium(t *testing.T) {
	// Condition 1 evaluated where it is defined: a shared bottleneck. Both
	// LIA subflows cross one 1000 pkt/s link; the aggregate must not exceed
	// what a single TCP gets on the best path of the same link.
	s := &System{
		Paths: []Path{
			{RTT: 0.03, Capacity: 1000},
			{RTT: 0.09, Capacity: 1000},
		},
		SharedBottleneck: true,
	}
	s.Psi = s.FromParam(core.PsiLIA, 0.5)
	x, ok := s.Equilibrium([]float64{50, 50}, 1e-3, 400000)
	if !ok {
		t.Fatalf("did not converge: %s", String(x))
	}
	views := s.Views(x, 0.5)
	if !core.SatisfiesCondition1(&core.Model{ModelName: "lia", Psi: core.PsiLIA}, views, 0.05) {
		h := core.BestPath(views)
		t.Errorf("LIA violates Condition 1 at fluid equilibrium %s: psi_h = %.3f",
			String(x), core.EffectivePsi(&core.Model{ModelName: "lia", Psi: core.PsiLIA}, views, h))
	}

	// A single-path TCP on the best (short-RTT) path of the same link
	// reaches at least the coupled aggregate.
	best := &System{Paths: []Path{s.Paths[0]}}
	best.Psi = func([]float64, int) float64 { return 1 }
	xb, _ := best.Equilibrium([]float64{50}, 1e-3, 400000)
	if agg := AggregateRate(x); agg > 1.15*xb[0] {
		t.Errorf("LIA aggregate %.1f exceeds best-path TCP %.1f", agg, xb[0])
	}

	// On disjoint bottlenecks the same algorithm legitimately aggregates
	// beyond the best path — that is MPTCP's purpose, not a violation.
	dis := &System{Paths: []Path{
		{RTT: 0.03, Capacity: 1000},
		{RTT: 0.09, Capacity: 600},
	}}
	dis.Psi = dis.FromParam(core.PsiLIA, 0.5)
	xd, ok := dis.Equilibrium([]float64{50, 50}, 1e-3, 400000)
	if !ok {
		t.Fatalf("disjoint system did not converge: %s", String(xd))
	}
	if AggregateRate(xd) <= xb[0] {
		t.Errorf("disjoint-path aggregate %.1f not above single best path %.1f",
			AggregateRate(xd), xb[0])
	}
}

func TestDTSEquilibriumMatchesOLIAAtHalfRatio(t *testing.T) {
	// At the design point baseRTT/RTT = 1/2, eps = 1, so ψ_DTS = ψ_OLIA = 1
	// and the two fluid systems share equilibria (§V-B's fairness choice).
	paths := []Path{{RTT: 0.05, Capacity: 900}, {RTT: 0.08, Capacity: 500}}
	mk := func(psi core.ParamFunc) []float64 {
		s := &System{Paths: paths}
		s.Psi = s.FromParam(psi, 0.5)
		x, ok := s.Equilibrium([]float64{40, 40}, 1e-3, 400000)
		if !ok {
			t.Fatalf("no convergence: %s", String(x))
		}
		return x
	}
	dts, olia := mk(psiDTS), mk(core.PsiOLIA)
	for r := range dts {
		if math.Abs(dts[r]-olia[r]) > 0.02*olia[r]+1 {
			t.Errorf("path %d: DTS %.1f vs OLIA %.1f at eps=1", r, dts[r], olia[r])
		}
	}
}

// psiDTS is ψ_r = c·ε_r at c = 1 (Eq. 5) on synthesized views.
func psiDTS(flows []core.View, r int) float64 {
	return core.EpsExact(flows[r].BaseRTT / flows[r].LastRTT)
}

func TestDTSSuppressedAtLowRatio(t *testing.T) {
	// When RTT doubles over base everywhere (ratio 1/3), eps < 1 and the
	// DTS equilibrium falls below OLIA's.
	paths := []Path{{RTT: 0.06, Capacity: 900}}
	mk := func(frac float64) float64 {
		s := &System{Paths: paths}
		s.Psi = s.FromParam(psiDTS, frac)
		x, ok := s.Equilibrium([]float64{40}, 1e-3, 400000)
		if !ok {
			t.Fatalf("no convergence")
		}
		return x[0]
	}
	if lo, mid := mk(1.0/3), mk(0.5); lo >= mid {
		t.Errorf("DTS at ratio 1/3 (%.1f) not below ratio 1/2 (%.1f)", lo, mid)
	}
}

func TestPhiTermReducesEquilibrium(t *testing.T) {
	// The compensative term (Eq. 9) prices traffic and must lower the
	// equilibrium rate — the throughput/energy tradeoff knob.
	mk := func(kappa float64) float64 {
		s := &System{Paths: []Path{{RTT: 0.05, Capacity: 1000}}}
		s.Psi = func([]float64, int) float64 { return 1 }
		if kappa > 0 {
			s.Phi = func(x []float64, r int) float64 { return kappa * x[r] * x[r] }
		}
		x, ok := s.Equilibrium([]float64{40}, 1e-3, 400000)
		if !ok {
			t.Fatalf("no convergence")
		}
		return x[0]
	}
	free, priced := mk(0), mk(1e-4)
	if priced >= free {
		t.Errorf("priced equilibrium %.1f not below free %.1f", priced, free)
	}
	if priced < 0.3*free {
		t.Errorf("kappa=1e-4 collapsed the rate to %.1f (free %.1f); price too harsh", priced, free)
	}
}

func TestCrossTrafficShiftsEquilibrium(t *testing.T) {
	// Cross traffic on path 1 must move the coupled equilibrium toward
	// path 0 (the fluid version of traffic shifting).
	mk := func(cross float64) []float64 {
		s := &System{Paths: []Path{
			{RTT: 0.05, Capacity: 800},
			{RTT: 0.05, Capacity: 800, Cross: cross},
		}}
		s.Psi = s.FromParam(core.PsiLIA, 0.5)
		x, ok := s.Equilibrium([]float64{40, 40}, 1e-3, 400000)
		if !ok {
			t.Fatalf("no convergence")
		}
		return x
	}
	clean := mk(0)
	loaded := mk(500)
	shareClean := clean[0] / AggregateRate(clean)
	shareLoaded := loaded[0] / AggregateRate(loaded)
	if shareLoaded <= shareClean {
		t.Errorf("clean-path share did not grow under cross traffic: %.2f -> %.2f",
			shareClean, shareLoaded)
	}
}

func TestLambdaShape(t *testing.T) {
	s := renoSystem(1000)
	if l := s.Lambda([]float64{500}, 0); l <= 0 || l >= 1 {
		t.Errorf("price below capacity = %v, want in (0,1)", l)
	}
	if l := s.Lambda([]float64{2000}, 0); l <= 1 {
		t.Errorf("price above capacity = %v, want > 1", l)
	}
	if s.Lambda([]float64{0}, 0) != 0 {
		t.Error("price at zero load should be 0")
	}
}

// TestPowExactMatchesMathPow holds powExact to math.Pow bit for bit: every
// exponent of the fast path at the domain's ends, at 1 and its neighbours
// and at a random interior point, and the fallbacks around it.
func TestPowExactMatchesMathPow(t *testing.T) {
	check := func(u, e float64) {
		t.Helper()
		if got, want := powExact(u, e), math.Pow(u, e); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("powExact(%x, %v) = %x, math.Pow gives %x", u, e, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for e := 1; e <= 64; e++ {
		interior := math.Exp2(30*rng.Float64() - 15)
		for _, u := range []float64{0x1p-15, 0x1p15, 1, math.Nextafter(1, 2), math.Nextafter(1, 0), interior} {
			check(u, float64(e))
		}
	}
	for _, e := range []float64{6, 20} { // the default and the backend's PriceExp
		for _, u := range []float64{math.Nextafter(0x1p-15, 0), math.Nextafter(0x1p15, math.Inf(1)), 0x1p-40, 1e300, 0, -2, math.Inf(1), math.NaN()} {
			check(u, e)
		}
	}
	for _, e := range []float64{0, -1, -20, 0.5, 2.5, 6.000000000000001, 65, 1 << 40, math.Inf(1), math.NaN()} {
		for _, u := range []float64{0.3, 1, 1.7, 1000} {
			check(u, e)
		}
	}
}

// FuzzPowExact compares powExact with math.Pow at a fuzzed base, and at the
// base's mantissa scaled into the fast path's domain, for integer exponents
// on both sides of [1, 64].
func FuzzPowExact(f *testing.F) {
	f.Add(1.05, int8(20))
	f.Add(0.3, int8(6))
	f.Add(0x1p15, int8(64))
	f.Add(-3.0, int8(-2))
	f.Fuzz(func(t *testing.T, u float64, n int8) {
		m, _ := math.Frexp(u)
		e := float64(n)
		for _, v := range []float64{u, math.Ldexp(math.Abs(m), int(n)%16)} {
			if got, want := powExact(v, e), math.Pow(v, e); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("powExact(%x, %v) = %x, math.Pow gives %x", v, e, got, want)
			}
		}
	})
}

func TestIntegrateIsDeterministic(t *testing.T) {
	s := renoSystem(500)
	a := s.Integrate([]float64{10}, 0.01, 5000)
	b := s.Integrate([]float64{10}, 0.01, 5000)
	if a[0] != b[0] {
		t.Errorf("integration not deterministic: %v vs %v", a[0], b[0])
	}
}

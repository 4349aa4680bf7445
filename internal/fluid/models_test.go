package fluid

import (
	"math"
	"testing"

	"mptcpsim/internal/core"
)

// stiffSystem is a single-path system whose price knee is sharp enough
// (PriceExp 60) that RK4 at the default step dt = minRTT/4 oscillates around
// the fixed point instead of converging — the non-convergence mode the
// damped solver exists for.
func stiffSystem() *System {
	s := &System{Paths: []Path{{RTT: 0.05, Capacity: 100}}, PriceExp: 60}
	s.Psi = func(x []float64, r int) float64 { return 1 }
	return s
}

func TestEquilibriumDampedRecoversStiffSystem(t *testing.T) {
	s := stiffSystem()
	x0 := []float64{50}
	if _, ok := s.Equilibrium(x0, 1e-3, 40000); ok {
		t.Fatal("system unexpectedly converged undamped; the regression needs a stiff instance")
	}
	x, ok := s.EquilibriumDamped(x0, 1e-3, 40000)
	if !ok {
		t.Fatalf("damped solver did not converge: %s", String(x))
	}
	dx := make([]float64, 1)
	s.Derivative(x, dx)
	if math.Abs(dx[0]) > 1e-3*math.Max(x[0], 1) {
		t.Errorf("damped result is not an equilibrium: x=%s dx=%v", String(x), dx[0])
	}
}

func TestEquilibriumDampedMatchesEquilibriumWhenConverging(t *testing.T) {
	// On a non-stiff system the damped solver's first attempt IS the plain
	// solver, so the results must be bit-identical — the property that lets
	// the conformance harness switch over without moving its golden.
	s := &System{Paths: []Path{
		{RTT: 0.04, Capacity: 1333.3},
		{RTT: 0.05, Capacity: 666.6},
	}, PriceExp: 20}
	s.Psi = s.FromParam(core.PsiLIA, 0.5)
	x0 := []float64{100, 100}
	a, ok1 := s.Equilibrium(x0, 1e-3, 400000)
	b, ok2 := s.EquilibriumDamped(x0, 1e-3, 400000)
	if !ok1 || !ok2 {
		t.Fatalf("no convergence: ok1=%v ok2=%v", ok1, ok2)
	}
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("path %d: Equilibrium %v != EquilibriumDamped %v", r, a[r], b[r])
		}
	}
}

func TestEquilibriumSharesSeedsAtHalfFreeCapacity(t *testing.T) {
	// EquilibriumShares must reproduce the documented seeding exactly:
	// x0 = max((cap−cross)/2, 1), a Newton solve from there, then normalize.
	s := &System{Paths: []Path{
		{RTT: 0.04, Capacity: 1333.3},
		{RTT: 0.05, Capacity: 666.6, Cross: 333.3},
	}, PriceExp: 20}
	s.Psi = s.FromParam(core.PsiLIA, 0.5)
	shares, rates, ok := s.EquilibriumShares(1e-3, 400000)
	if !ok {
		t.Fatalf("no convergence: %s", String(rates))
	}
	x0 := []float64{
		math.Max((1333.3-0)/2, 1),
		math.Max((666.6-333.3)/2, 1),
	}
	want, ok := s.newton(x0, 1e-3)
	if !ok {
		t.Fatalf("Newton from the documented seed did not settle: %s", String(want))
	}
	agg := AggregateRate(want)
	for r := range shares {
		if rates[r] != want[r] {
			t.Errorf("path %d: rate %v, manual solve %v", r, rates[r], want[r])
		}
		if shares[r] != want[r]/agg {
			t.Errorf("path %d: share %v, want %v", r, shares[r], want[r]/agg)
		}
	}
	if sum := shares[0] + shares[1]; math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

// allocSystem is a two-path system whose 1 s path, stepped at a quarter of
// the 10 ms one's RTT, makes RK4 slow to settle.
func allocSystem() *System {
	s := &System{Paths: []Path{
		{RTT: 0.01, Capacity: 1333.3},
		{RTT: 1, Capacity: 666.6, Cross: 333.3},
	}, PriceExp: 20}
	s.Psi = s.FromParam(core.PsiLIA, 0.5)
	return s
}

// TestEquilibriumAllocsIndependentOfSteps: an RK4 solve allocates its stages
// once, so what it allocates does not depend on how many 200-step batches it
// runs. At a loose tolerance the system settles after one batch; at 1e-3 it
// needs more than nine.
func TestEquilibriumAllocsIndependentOfSteps(t *testing.T) {
	s := allocSystem()
	x0 := []float64{666.65, 166.65} // the documented seed
	if x, ok := s.EquilibriumDamped(x0, 1e9, 200); !ok {
		t.Fatalf("tol 1e9 did not settle in one batch: %s", String(x))
	}
	if _, ok := s.EquilibriumDamped(x0, 1e-3, 9*200); ok {
		t.Fatal("tol 1e-3 settled within nine batches; the test needs a longer solve")
	}
	one := testing.AllocsPerRun(10, func() { s.EquilibriumDamped(x0, 1e9, 400000) })
	many := testing.AllocsPerRun(10, func() { s.EquilibriumDamped(x0, 1e-3, 400000) })
	if one != many {
		t.Errorf("a one-batch solve allocates %v times, a many-batch solve %v", one, many)
	}
}

// TestNewtonAllocsIndependentOfIterations is the Newton twin: a solve
// allocates its scratch once, so a solve from the root and one from the
// seed allocate alike however many iterations each takes.
func TestNewtonAllocsIndependentOfIterations(t *testing.T) {
	s := allocSystem()
	psi, calls := s.Psi, 0
	s.Psi = func(x []float64, r int) float64 {
		calls++
		return psi(x, r)
	}
	seed := []float64{666.65, 166.65} // the documented seed
	root, ok := s.newton(seed, 1e-3)
	if !ok {
		t.Fatalf("no convergence: %s", String(root))
	}
	count := func(x0 []float64) int {
		calls = 0
		s.newton(x0, 1e-3)
		return calls
	}
	if near, far := count(root), count(seed); near >= far {
		t.Fatalf("a solve from the root costs %d ψ calls, from the seed %d; the test needs them apart", near, far)
	}
	near := testing.AllocsPerRun(10, func() { s.newton(root, 1e-3) })
	far := testing.AllocsPerRun(10, func() { s.newton(seed, 1e-3) })
	if near != far {
		t.Errorf("a solve from the root allocates %v times, from the seed %v", near, far)
	}
}

// TestEquilibriumSharesFallsBackToRK4: ψ jumps from 1 to 1/4 between the
// two rates it would balance at, so dx/dt changes sign with no root and no
// Newton step can bring |dx/dt| under tol. EquilibriumShares must then
// return exactly what EquilibriumDamped returns from the same seed.
func TestEquilibriumSharesFallsBackToRK4(t *testing.T) {
	s := renoSystem(1000)
	// On one path Eq. 3 balances where x^(b+2) = 2ψ·C^b/RTT²; jump at ψ = 1/2.
	b := s.priceExp()
	jump := math.Pow(2*0.5*math.Pow(1000, b)/(0.05*0.05), 1/(b+2))
	s.Psi = func(x []float64, r int) float64 {
		if x[0] < jump {
			return 1
		}
		return 0.25
	}
	x0 := []float64{500}
	if x, ok := s.newton(x0, 1e-3); ok {
		t.Fatalf("Newton settled at %s across the jump; the test needs a ψ it cannot solve", String(x))
	}
	shares, rates, ok := s.EquilibriumShares(1e-3, 20000)
	want, wantOK := s.EquilibriumDamped(x0, 1e-3, 20000)
	if ok != wantOK || math.Float64bits(rates[0]) != math.Float64bits(want[0]) || shares[0] != 1 {
		t.Errorf("EquilibriumShares = %v (%v), EquilibriumDamped = %v (%v)", rates, ok, want, wantOK)
	}
}

func TestModelForCoversRegistry(t *testing.T) {
	// Every entry states exactly one of: a traffic-shifting parameter (Psi,
	// Eps or both), the delay-based oracle, or the reason it has no model —
	// and ModelFor maps it accordingly.
	for _, name := range core.Names() {
		e, _ := core.Lookup(name)
		kinds := 0
		for _, set := range []bool{e.Psi != nil || e.Eps != nil, e.Delay, e.NoModel != ""} {
			if set {
				kinds++
			}
		}
		if kinds != 1 {
			t.Errorf("%s: entry states %d of {ψ, delay-based, no-model reason}, want exactly one", name, kinds)
			continue
		}
		m, ok := ModelFor(name)
		if ok != (e.NoModel == "") {
			t.Errorf("%s: ModelFor ok = %v with NoModel = %q", name, ok, e.NoModel)
		}
		if (m.Oracle != nil) != e.Delay || (m.Psi != nil) != (e.Psi != nil || e.Eps != nil) {
			t.Errorf("%s: mapping psi=%v oracle=%v does not follow the entry",
				name, m.Psi != nil, m.Oracle != nil)
		}
	}
	if _, ok := ModelFor("no-such-alg"); ok {
		t.Error("unknown algorithm unexpectedly mapped")
	}
}

func TestModelForPsiRowsSolve(t *testing.T) {
	// Each Psi mapping must yield a converging system on the conformance
	// scenario's asymmetric two-path layout at a plausible operating point.
	rtt := []float64{0.045, 0.045}
	frac := []float64{0.9, 0.9}
	for _, name := range core.Names() {
		m, ok := ModelFor(name)
		if !ok || m.Psi == nil {
			continue
		}
		s := &System{Paths: []Path{
			{RTT: rtt[0], Capacity: 16e6 / (8 * 1500)},
			{RTT: rtt[1], Capacity: 8e6 / (8 * 1500)},
		}, PriceExp: 20}
		s.Psi = m.Psi(rtt, frac)
		shares, rates, ok := s.EquilibriumShares(1e-3, 400000)
		if !ok {
			t.Errorf("%s: no convergence: %s", name, String(rates))
			continue
		}
		// Capacity asymmetry 2:1 must show: path0 carries the larger share.
		if shares[0] <= shares[1] {
			t.Errorf("%s: path0 share %.3f not above path1 %.3f", name, shares[0], shares[1])
		}
	}
}

func TestFreeCapacityShares(t *testing.T) {
	got := FreeCapacityShares([]Path{
		{Capacity: 1200, Cross: 200},
		{Capacity: 600, Cross: 100},
		{Capacity: 400, Cross: 900}, // overloaded: clamps to zero
	})
	want := []float64{1000.0 / 1500, 500.0 / 1500, 0}
	for r := range want {
		if math.Abs(got[r]-want[r]) > 1e-12 {
			t.Errorf("path %d: share %v, want %v", r, got[r], want[r])
		}
	}
}

// FuzzEquilibriumShares solves a fuzzed two- or three-path system of a
// registered ψ algorithm at the backend's price exponent — capacities,
// RTTs, cross loads up to half a path and baseRTT/RTT fractions from 0.4,
// above where dts-taylor's ε clamps to 0 and a path without increase has its
// fixed point at x_r = 0 — and holds the answer to RK4 from the same seed
// integrated until |dx_r/dt| ≤ 1e-9·max(x_r, 1): every rate within
// 1e-5·max(x_r, 1), or both solvers reporting ok = false. The reference is
// a hundredfold tighter than the grid's because RTTs ten times apart make
// slower modes: RK4 at 1e-7 stops 1.2e-5 short on a 30/40/100 ms system.
func FuzzEquilibriumShares(f *testing.F) {
	f.Add(uint8(2), uint8(2), 1333.3, 666.6, 0.0, 0.045, 0.045, 0.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint8(3), 2000.0, 1000.0, 500.0, 0.03, 0.03, 0.03, 0.7, 0.7, 0.7, 0.0, 0.0, 0.15)
	f.Add(uint8(7), uint8(2), 1333.3, 666.6, 0.0, 0.02, 0.05, 0.0, 0.5, 0.4, 0.0, 0.0, 0.5, 0.0)
	var algs []string
	for _, name := range core.Names() {
		if m, ok := ModelFor(name); ok && m.Psi != nil {
			algs = append(algs, name)
		}
	}
	// span maps a fuzzed float onto [lo, hi).
	span := func(v, lo, hi float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return lo
		}
		return lo + math.Mod(math.Abs(v), hi-lo)
	}
	f.Fuzz(func(t *testing.T, alg, n uint8, c0, c1, c2, rtt0, rtt1, rtt2, frac0, frac1, frac2, load0, load1, load2 float64) {
		name := algs[int(alg)%len(algs)]
		m, _ := ModelFor(name)
		k := 2 + int(n)%2
		caps, loads := []float64{c0, c1, c2}[:k], []float64{load0, load1, load2}
		rtt, frac := []float64{rtt0, rtt1, rtt2}[:k], []float64{frac0, frac1, frac2}[:k]
		s := &System{PriceExp: 20}
		for r := range caps {
			rtt[r], frac[r] = span(rtt[r], 0.01, 0.1), span(frac[r], 0.4, 1)
			c := span(caps[r], 100, 3000)
			s.Paths = append(s.Paths, Path{RTT: rtt[r], Capacity: c, Cross: span(loads[r], 0, 0.5) * c})
		}
		s.Psi = m.Psi(rtt, frac)
		_, rates, ok := s.EquilibriumShares(1e-3, 400000)
		x0 := make([]float64, k)
		for r, p := range s.Paths {
			x0[r] = math.Max((p.Capacity-p.Cross)/2, 1)
		}
		tight, tightOK := s.EquilibriumDamped(x0, 1e-9, 4e6)
		if !ok && !tightOK {
			return
		}
		for r := range rates {
			if !ok || !tightOK || !(math.Abs(rates[r]-tight[r]) <= 1e-5*math.Max(tight[r], 1)) {
				t.Fatalf("%s on %+v: %s (ok %v), tight RK4 %s (ok %v)", name, s.Paths, String(rates), ok, String(tight), tightOK)
			}
		}
	})
}

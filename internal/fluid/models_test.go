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
	// x0 = max((cap−cross)/2, 1), then normalize.
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
	want, _ := s.EquilibriumDamped(x0, 1e-3, 400000)
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

// TestEquilibriumAllocsIndependentOfSteps: a solve allocates its RK4 stages
// once, so what it allocates does not depend on how many 200-step batches it
// runs. At a loose tolerance the system settles after one batch; at 1e-3 its
// 1 s path, stepped at a quarter of the 10 ms one's RTT, needs sixteen.
func TestEquilibriumAllocsIndependentOfSteps(t *testing.T) {
	s := &System{Paths: []Path{
		{RTT: 0.01, Capacity: 1333.3},
		{RTT: 1, Capacity: 666.6, Cross: 333.3},
	}, PriceExp: 20}
	s.Psi = s.FromParam(core.PsiLIA, 0.5)
	if _, rates, ok := s.EquilibriumShares(1e9, 200); !ok {
		t.Fatalf("tol 1e9 did not settle in one batch: %s", String(rates))
	}
	if _, _, ok := s.EquilibriumShares(1e-3, 9*200); ok {
		t.Fatal("tol 1e-3 settled within nine batches; the test needs a longer solve")
	}
	one := testing.AllocsPerRun(10, func() { s.EquilibriumShares(1e9, 400000) })
	many := testing.AllocsPerRun(10, func() { s.EquilibriumShares(1e-3, 400000) })
	if one != many {
		t.Errorf("a one-batch solve allocates %v times, a many-batch solve %v", one, many)
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

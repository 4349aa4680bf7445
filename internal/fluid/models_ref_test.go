package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mptcpsim/internal/core"
)

// ModelFor's closures fill scratch views once per rate vector and evaluate ε
// once, and Lambda prices by powExact; they are checked bit-for-bit against
// the forms they replaced, kept here: a fresh []core.View per evaluation
// (ViewsAt), ε re-evaluated every time and the price by math.Pow
// (refDerivative).

// ViewsAt is the allocating form of fillViews.
func ViewsAt(x, rtt, frac []float64) []core.View {
	views := make([]core.View, len(x))
	fillViews(views, x, rtt, frac)
	return views
}

// Views and FromParam are the tests' shorthand for one baseRTT/RTT fraction
// shared by all of the System's paths.
func (s *System) Views(x []float64, baseRTTFrac float64) []core.View {
	rtt, frac := s.operatingPoint(baseRTTFrac)
	return ViewsAt(x, rtt, frac)
}

func (s *System) FromParam(fn core.ParamFunc, baseRTTFrac float64) func(x []float64, r int) float64 {
	return uniformPsi(fn)(s.operatingPoint(baseRTTFrac))
}

func (s *System) operatingPoint(baseRTTFrac float64) (rtt, frac []float64) {
	for _, p := range s.Paths {
		rtt = append(rtt, p.RTT)
		frac = append(frac, baseRTTFrac)
	}
	return rtt, frac
}

// refPsi returns the allocating, re-evaluating ψ for a ModelFor name.
func refPsi(alg string, rtt, frac []float64) func(x []float64, r int) float64 {
	uniform := func(fn core.ParamFunc) func(x []float64, r int) float64 {
		return func(x []float64, r int) float64 { return fn(ViewsAt(x, rtt, frac), r) }
	}
	switch alg {
	case "ewtcp":
		return uniform(core.PsiEWTCP)
	case "coupled":
		return uniform(core.PsiCoupled)
	case "lia":
		return uniform(core.PsiLIA)
	case "olia":
		return uniform(core.PsiOLIA)
	case "balia":
		return uniform(core.PsiBalia)
	case "ecmtcp":
		return uniform(core.PsiECMTCP)
	case "cubic", "reno":
		return uniform(core.PsiUncoupled)
	case "dts", "dtsep":
		return func(x []float64, r int) float64 { return core.EpsExact(frac[r]) }
	case "dts-taylor":
		return func(x []float64, r int) float64 {
			return float64(core.EpsTaylor(int64(math.Round(frac[r]*100)))) / 100
		}
	case "dts-lia", "dtsep-lia":
		return func(x []float64, r int) float64 {
			return core.EpsExact(frac[r]) * core.PsiLIA(ViewsAt(x, rtt, frac), r)
		}
	}
	return nil
}

// refDerivative is Derivative with the Kelly price by math.Pow; with refPsi
// as s.Psi it is the allocating form whole.
func refDerivative(s *System, x, dx []float64) {
	var sum float64
	for _, v := range x {
		sum += v
	}
	for r := range s.Paths {
		xr := x[r]
		if xr <= 0 {
			xr = 1e-9
		}
		rtt := s.Paths[r].RTT
		inc := s.Psi(x, r) * xr * xr / (rtt * rtt * sum * sum)
		beta := 0.5
		if s.Beta != nil {
			beta = s.Beta(x, r)
		}
		var load, capacity, price float64
		if s.SharedBottleneck {
			capacity = s.Paths[0].Capacity
			for k, p := range s.Paths {
				load += x[k] + p.Cross
			}
		} else {
			capacity = s.Paths[r].Capacity
			load = x[r] + s.Paths[r].Cross
		}
		if capacity > 0 && load > 0 {
			price = math.Pow(load/capacity, s.priceExp())
		}
		dec := beta * price * xr * xr
		var phi float64
		if s.Phi != nil {
			phi = s.Phi(x, r)
		}
		dx[r] = inc - dec - phi
	}
}

// psiModels calls fn for every registered algorithm with a ψ mapping, on a
// three-path system at an uneven operating point.
func psiModels(t *testing.T, fn func(name string, s *System, rtt, frac []float64)) {
	t.Helper()
	rtt := []float64{0.045, 0.02, 0.11}
	frac := []float64{0.9, 0.55, 0.31}
	seen := 0
	for _, name := range core.Names() {
		m, ok := ModelFor(name)
		if !ok || m.Psi == nil {
			continue
		}
		seen++
		s := &System{Paths: []Path{
			{RTT: rtt[0], Capacity: 1300},
			{RTT: rtt[1], Capacity: 650, Cross: 100},
			{RTT: rtt[2], Capacity: 2000},
		}, PriceExp: 20}
		s.Psi = m.Psi(rtt, frac)
		fn(name, s, rtt, frac)
	}
	if seen < 10 {
		t.Errorf("only %d algorithms have a ψ mapping; the registry walk is stale", seen)
	}
}

func TestModelForMatchesAllocatingForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	psiModels(t, func(name string, s *System, rtt, frac []float64) {
		ref := *s
		ref.Psi = refPsi(name, rtt, frac)
		if ref.Psi == nil {
			t.Fatalf("%s: no reference ψ; add it to refPsi", name)
		}
		x := make([]float64, 3)
		got, want := make([]float64, 3), make([]float64, 3)
		for i := 0; i < 200; i++ {
			for r := range x {
				x[r] = rng.Float64() * 2000
			}
			s.Derivative(x, got)
			refDerivative(&ref, x, want)
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%s: dx[%d] at %v = %v, allocating form gives %v", name, r, x, got[r], want[r])
				}
			}
		}
		a, _, okA := s.EquilibriumShares(1e-3, 400000)
		b, _, okB := ref.EquilibriumShares(1e-3, 400000)
		for r := range a {
			if math.Float64bits(a[r]) != math.Float64bits(b[r]) || okA != okB {
				t.Errorf("%s: equilibrium share %d = %v (%v), allocating form gives %v (%v)", name, r, a[r], okA, b[r], okB)
			}
		}
	})
}

// TestUniformPsiMemo covers the ψ memo's two ways to go stale that
// Derivative does not exercise: x mutated in place between two calls, and
// paths evaluated in reverse order.
func TestUniformPsiMemo(t *testing.T) {
	psiModels(t, func(name string, s *System, rtt, frac []float64) {
		ref := refPsi(name, rtt, frac)
		negZero := math.Copysign(0, -1)
		x := make([]float64, 3)
		for _, v := range [][]float64{{400, 300, 900}, {1200, 300, 900}, {1200, 900, 0}, {1200, 900, negZero}, {1200, 900, 0}} {
			copy(x, v) // in place: the memo must see the values, not the slice
			for r := len(x) - 1; r >= 0; r-- {
				if got, want := s.Psi(x, r), ref(x, r); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: ψ_%d at %v = %v, fresh views give %v", name, r, x, got, want)
				}
			}
		}
	})
}

func TestModelForDerivativeDoesNotAllocate(t *testing.T) {
	psiModels(t, func(name string, s *System, _, _ []float64) {
		x := []float64{400, 300, 900}
		dx := make([]float64, 3)
		if avg := testing.AllocsPerRun(100, func() { s.Derivative(x, dx) }); avg != 0 {
			t.Errorf("%s: Derivative allocates %.1f times, want 0", name, avg)
		}
	})
}

// BenchmarkDerivative is one Eq. 3 evaluation of a lia System at the
// backend's PriceExp: the unit a fluid point's solve is made of.
func BenchmarkDerivative(b *testing.B) {
	m, _ := ModelFor("lia")
	rtt := []float64{0.045, 0.02, 0.11}
	frac := []float64{0.9, 0.55, 0.31}
	paths := []Path{{RTT: rtt[0], Capacity: 1300}, {RTT: rtt[1], Capacity: 650, Cross: 100}, {RTT: rtt[2], Capacity: 2000}}
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s := &System{Paths: paths[:n], PriceExp: 20}
			s.Psi = m.Psi(rtt[:n], frac[:n])
			x := []float64{400, 300, 900}[:n]
			dx := make([]float64, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x[0] += 1e-9 // a new rate vector each time, as in RK4
				s.Derivative(x, dx)
			}
		})
	}
}

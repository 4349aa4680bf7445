package backend

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"testing"

	"mptcpsim/internal/fluid"
	"mptcpsim/internal/tcp"
)

// documentedGrid is the grid `mptcp-bench -sweep -loads 0:0.15:28` solves,
// fluid side only: DefaultSweepSpec's 4 topologies × 9 algorithms × 28
// loads, 1008 points.
func documentedGrid() SweepSpec {
	spec := DefaultSweepSpec()
	spec.Loads = make([]float64, 28)
	for i := range spec.Loads {
		spec.Loads[i] = 0.15 * float64(i) / 27 // parseLoads' lo + (hi−lo)·i/(n−1)
	}
	spec.Backend, spec.Workers = "fluid", 1
	return spec
}

// TestFluidGridPinned pins every fluid answer of the documented grid by
// identity: the SHA-256 of each point's ID, Converged flag and per-path
// rates in hex float form. A change to the solver's arithmetic that moves one
// bit of one rate fails it. The hash was re-recorded when EquilibriumShares
// began solving the fixed point by Newton instead of integrating RK4 to
// |dx_r/dt| ≤ 1e-3·max(x_r, 1): every Eq. 3 point's low bits moved by
// design, toward the root TestFluidGridMatchesTightRK4 holds them to.
func TestFluidGridPinned(t *testing.T) {
	res, err := Sweep(context.Background(), documentedGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1008 {
		t.Fatalf("%d points, want 1008", len(res.Points))
	}
	h := sha256.New()
	for _, p := range res.Points {
		fmt.Fprintf(h, "%s %v", p.ID(), p.Fluid.Converged)
		for _, r := range p.Fluid.RateBps {
			fmt.Fprintf(h, " %s", strconv.FormatFloat(r, 'x', -1, 64))
		}
		fmt.Fprintln(h)
	}
	const want = "8de6af99aa67997d38a924484a360fb49f74a26cbc2c921fa44690d264520ffc"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("fluid grid moved: sha256 %s, want %s", got, want)
	}
}

// eq3Points calls fn for each of the documented grid's 784 Eq. 3 points (the
// other 224 are delay-based, answered by an oracle) with the System the
// engine solves there and the engine's rates in packets/s.
func eq3Points(t *testing.T, fn func(id string, s *fluid.System, x []float64)) {
	t.Helper()
	spec := documentedGrid()
	res, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range res.Points {
		s, model, _, _, err := fluidSystem(p.Scenario(spec).WithDefaults(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if model.Oracle != nil {
			continue
		}
		if !p.Fluid.Converged {
			t.Errorf("%s: the engine's solve did not converge", p.ID())
		}
		x := make([]float64, len(p.Fluid.RateBps))
		for r, bps := range p.Fluid.RateBps {
			x[r] = bps / (8 * tcp.WireSize)
		}
		fn(p.ID(), s, x)
		n++
	}
	if n != 784 {
		t.Fatalf("%d Eq. 3 points, want 784", n)
	}
}

// TestFluidGridMatchesTightRK4 holds every Eq. 3 answer of the documented
// grid to RK4 from the same seed, integrated until |dx_r/dt| ≤
// 1e-7·max(x_r, 1): within 1e-5 relative on every rate. At the engine's own
// tolerance, 1e-3, RK4 stops short of the fixed point on slow modes (1.6 % on
// threepath/dts at load 0.144); an engine that answers with anything but the
// fixed point fails this.
func TestFluidGridMatchesTightRK4(t *testing.T) {
	eq3Points(t, func(id string, s *fluid.System, x []float64) {
		x0 := make([]float64, len(s.Paths))
		for r, p := range s.Paths {
			x0[r] = math.Max((p.Capacity-p.Cross)/2, 1)
		}
		tight, ok := s.EquilibriumDamped(x0, 1e-7, 4e7)
		if !ok {
			t.Errorf("%s: tight RK4 did not settle", id)
			return
		}
		for r := range x {
			if d := math.Abs(x[r]-tight[r]) / tight[r]; !(d <= 1e-5) {
				t.Errorf("%s: path %d rate %.9g, tight RK4 %.9g (relative %.2g)", id, r, x[r], tight[r], d)
			}
		}
	})
}

// TestFluidGridLocallyStable checks local asymptotic stability at every Eq. 3
// root of the documented grid rather than assuming it: the Jacobian J of
// dx/dt in x, by forward differences, must pass Routh–Hurwitz. For n = 2
// that is tr J < 0 and det J > 0; for n = 3, with characteristic polynomial
// λ³ + a₁λ² + a₂λ + a₃, it is a₁ > 0, a₃ > 0 and a₁a₂ > a₃.
func TestFluidGridLocallyStable(t *testing.T) {
	eq3Points(t, func(id string, s *fluid.System, x []float64) {
		n := len(x)
		f0, f1, xh := make([]float64, n), make([]float64, n), make([]float64, n)
		j := make([][]float64, n)
		s.Derivative(x, f0)
		for c := range x {
			j[c] = make([]float64, n)
		}
		for c := range x {
			copy(xh, x)
			xh[c] += 1e-7 * x[c]
			h := xh[c] - x[c]
			s.Derivative(xh, f1)
			for r := range x {
				j[r][c] = (f1[r] - f0[r]) / h
			}
		}
		switch n {
		case 2:
			tr, det := j[0][0]+j[1][1], j[0][0]*j[1][1]-j[0][1]*j[1][0]
			if !(tr < 0 && det > 0) {
				t.Errorf("%s: unstable root %v: tr %.3g det %.3g", id, x, tr, det)
			}
		case 3:
			a1 := -(j[0][0] + j[1][1] + j[2][2])
			a2 := j[0][0]*j[1][1] - j[0][1]*j[1][0] + j[0][0]*j[2][2] - j[0][2]*j[2][0] + j[1][1]*j[2][2] - j[1][2]*j[2][1]
			a3 := -(j[0][0]*(j[1][1]*j[2][2]-j[1][2]*j[2][1]) - j[0][1]*(j[1][0]*j[2][2]-j[1][2]*j[2][0]) + j[0][2]*(j[1][0]*j[2][1]-j[1][1]*j[2][0]))
			if !(a1 > 0 && a3 > 0 && a1*a2 > a3) {
				t.Errorf("%s: unstable root %v: a1 %.3g a2 %.3g a3 %.3g", id, x, a1, a2, a3)
			}
		default:
			t.Fatalf("%s: %d paths; Routh–Hurwitz is written out for 2 and 3", id, n)
		}
	})
}

// TestNewtonEvaluationBudget counts what each Eq. 3 solve of the documented
// grid costs in derivative evaluations (ψ calls over the path count): the
// seven algorithms at every two- and three-path operating point of the grid
// must each settle within 80. An RK4 fallback costs thousands.
func TestNewtonEvaluationBudget(t *testing.T) {
	eq3Points(t, func(id string, s *fluid.System, _ []float64) {
		psi, calls := s.Psi, 0
		s.Psi = func(x []float64, r int) float64 {
			calls++
			return psi(x, r)
		}
		if _, _, ok := s.EquilibriumShares(1e-3, 400000); !ok {
			t.Errorf("%s: did not converge", id)
		}
		if evals := calls / len(s.Paths); evals > 80 {
			t.Errorf("%s: %d derivative evaluations, budget 80", id, evals)
		}
	})
}

// BenchmarkFluidPoint is one fluid point on each default topology for three
// algorithms at load 0.1: topology build, operating point and solve.
func BenchmarkFluidPoint(b *testing.B) {
	spec := DefaultSweepSpec()
	for _, topology := range spec.Topologies {
		for _, alg := range []string{"lia", "olia", "dts"} {
			sc := Point{Topology: topology, Algorithm: alg, Load: 0.1}.Scenario(spec)
			b.Run(topology+"/"+alg, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := (FluidEngine{}).Run(context.Background(), sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

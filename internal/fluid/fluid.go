// Package fluid solves the paper's Eq. 3 fluid model
//
//	dx_r/dt = ψ_r(x)·x_r² / (RTT_r²·(Σ_k x_k)²) − β_r(x)·λ_r(x)·x_r² − φ_r(x)
//
// for its fixed point, by damped Newton with RK4 integration as the
// fallback, so the §IV/§V analysis can be checked independently of the
// packet simulator: equilibria, TCP-friendliness (Condition 1) and the effect
// of the compensative term are computed here and compared against packet-
// level runs in the tests.
//
// Loss signals use the standard Kelly congestion price: a path through a
// link of capacity C charges λ(y) = (y/C)^b for offered load y, with a
// large exponent b approximating a hard capacity constraint.
package fluid

import "math"

// Path is one route of the modelled connection: a round-trip time, a
// bottleneck capacity, and optional constant cross traffic sharing it.
type Path struct {
	RTT      float64 // seconds
	Capacity float64 // packets per second
	Cross    float64 // packets per second of competing traffic
}

// System is an Eq. 3 instance over a set of paths. Psi/Beta/Phi follow the
// congestion-control model; nil Beta means the TCP standard 1/2 and nil
// Phi means no compensative term. A System is single-goroutine: ModelFor's
// Psi closures reuse scratch state between evaluations.
type System struct {
	Paths []Path
	Psi   func(x []float64, r int) float64
	Beta  func(x []float64, r int) float64
	Phi   func(x []float64, r int) float64

	// PriceExp is the Kelly price exponent b (default 6).
	PriceExp float64

	// SharedBottleneck, when set, derives every path's loss signal from
	// the aggregate rate over Paths[0].Capacity — the Fig. 5a situation of
	// all subflows crossing one link, where TCP-friendliness (Condition 1)
	// is defined.
	SharedBottleneck bool
}

func (s *System) priceExp() float64 {
	if s.PriceExp <= 0 {
		return 6
	}
	return s.PriceExp
}

// Lambda returns the loss signal λ_r at rate vector x.
func (s *System) Lambda(x []float64, r int) float64 {
	var load, capacity float64
	if s.SharedBottleneck {
		capacity = s.Paths[0].Capacity
		for k, p := range s.Paths {
			load += x[k] + p.Cross
		}
	} else {
		capacity = s.Paths[r].Capacity
		load = x[r] + s.Paths[r].Cross
	}
	if capacity <= 0 || load <= 0 {
		return 0
	}
	return powExact(load/capacity, s.priceExp())
}

// powExact is math.Pow(u, e) bit for bit, minus its Frexp/Modf/Ldexp
// bookkeeping, for integer e in [1, 64] and u in [2⁻¹⁵, 2¹⁵]: a Kelly price
// at the default or the backend's exponent with the load within a factor
// 2¹⁵ of capacity. math.Pow computes an integer power by this same repeated
// squaring, on u's Frexp mantissa with the binary exponent carried aside.
// Scaling a factor by a power of two scales its correctly rounded product
// by the same power, so the two loops round alike while every value read
// here is a normal float, and on this domain all lie in [2⁻⁹⁶⁰, 2⁹⁶⁰] (the
// square after the last set bit may overflow; it is never read). Anything
// else goes to math.Pow.
func powExact(u, e float64) float64 {
	n := int(e)
	if float64(n) != e || n < 1 || n > 64 || !(u >= 0x1p-15 && u <= 0x1p15) {
		return math.Pow(u, e)
	}
	acc := 1.0
	for ; n != 0; n >>= 1 {
		if n&1 == 1 {
			acc *= u
		}
		u *= u
	}
	return acc
}

// Derivative evaluates dx/dt into dx.
func (s *System) Derivative(x, dx []float64) {
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
		dec := beta * s.Lambda(x, r) * xr * xr
		var phi float64
		if s.Phi != nil {
			phi = s.Phi(x, r)
		}
		dx[r] = inc - dec - phi
	}
}

// rk4 is RK4's stage storage, allocated once per solve and reused by
// every batch of it.
type rk4 struct{ k1, k2, k3, k4, tmp []float64 }

func newRK4(n int) rk4 {
	buf := make([]float64, 5*n)
	return rk4{buf[:n], buf[n : 2*n], buf[2*n : 3*n], buf[3*n : 4*n], buf[4*n:]}
}

// integrate is Integrate in place: x advances steps RK4 steps.
func (s *System) integrate(x []float64, dt float64, steps int, sc rk4) {
	k1, k2, k3, k4, tmp := sc.k1, sc.k2, sc.k3, sc.k4, sc.tmp
	for i := 0; i < steps; i++ {
		s.Derivative(x, k1)
		for j := range tmp {
			tmp[j] = x[j] + dt/2*k1[j]
		}
		s.Derivative(tmp, k2)
		for j := range tmp {
			tmp[j] = x[j] + dt/2*k2[j]
		}
		s.Derivative(tmp, k3)
		for j := range tmp {
			tmp[j] = x[j] + dt*k3[j]
		}
		s.Derivative(tmp, k4)
		for j := range x {
			x[j] += dt / 6 * (k1[j] + 2*k2[j] + 2*k3[j] + k4[j])
			if x[j] < 1e-6 {
				x[j] = 1e-6
			}
		}
	}
}

// Equilibrium integrates until the relative derivative is below tol,
// returning the state and whether it converged within maxSteps.
//
// ok = false means the returned state is the LAST ITERATE of a run that
// never settled — typically an oscillation around the fixed point when the
// step size is too large for a stiff system (a sharp PriceExp knee).
// Callers must not present it as an equilibrium; use EquilibriumDamped to
// retry stiff systems at smaller steps, and surface the flag either way.
func (s *System) Equilibrium(x0 []float64, tol float64, maxSteps int) ([]float64, bool) {
	return s.equilibriumAt(x0, 0.25*s.minRTT(), tol, maxSteps)
}

// EquilibriumDamped is Equilibrium with a stiffness fallback: when the
// integration at the default step dt = minRTT/4 fails to settle (RK4
// oscillating around the fixed point instead of approaching it), it retries
// from x0 with the step halved, up to three times. A system that converges
// on the first attempt takes exactly the same trajectory as Equilibrium, so
// switching callers over cannot move an already-converging answer.
func (s *System) EquilibriumDamped(x0 []float64, tol float64, maxSteps int) ([]float64, bool) {
	dt := 0.25 * s.minRTT()
	var x []float64
	var ok bool
	for attempt := 0; attempt < 4; attempt++ {
		x, ok = s.equilibriumAt(x0, dt, tol, maxSteps)
		if ok {
			return x, true
		}
		dt /= 2
	}
	return x, false
}

func (s *System) equilibriumAt(x0 []float64, dt, tol float64, maxSteps int) ([]float64, bool) {
	x := make([]float64, len(x0))
	copy(x, x0)
	dx := make([]float64, len(x0))
	sc := newRK4(len(x0))
	const batch = 200
	for step := 0; step < maxSteps; step += batch {
		s.integrate(x, dt, batch, sc)
		s.Derivative(x, dx)
		settled := true
		for r := range x {
			if math.Abs(dx[r]) > tol*math.Max(x[r], 1) {
				settled = false
				break
			}
		}
		if settled {
			return x, true
		}
	}
	return x, false
}

// EquilibriumShares solves the system from the standard seed — half the
// free capacity of each path, floored at one packet/s — and returns the
// per-path shares of the equilibrium aggregate alongside the raw rates.
// This is the one solve path the fluid backend engine and the conformance
// harness (both internal/backend) go through.
//
// The fixed point is found by damped Newton (newton). A Newton answer is
// returned only if it passes Equilibrium's own test of settled,
// |dx_r/dt| ≤ tol·max(x_r, 1) on every path; otherwise EquilibriumDamped
// integrates from the same seed for at most maxSteps steps an attempt.
//
// Seeding at half the FREE capacity matters: starting a cross-loaded path
// above its free share puts it over capacity, where the price crushes the
// rate to the floor — and recovery from near-zero is glacial in Eq. 3 (the
// increase scales with x_r²), so RK4 would report a spuriously starved
// equilibrium.
//
// ok = false means neither solver settled; shares then describe RK4's last
// iterate, not an equilibrium, and callers must surface that (conformance
// prints "no-converge", the fluid engine clears Result.Converged).
func (s *System) EquilibriumShares(tol float64, maxSteps int) (shares, rates []float64, ok bool) {
	x0 := make([]float64, len(s.Paths))
	for r, p := range s.Paths {
		x0[r] = math.Max((p.Capacity-p.Cross)/2, 1)
	}
	x, ok := s.newton(x0, tol)
	if !ok {
		x, ok = s.EquilibriumDamped(x0, tol, maxSteps)
	}
	agg := AggregateRate(x)
	if agg <= 0 {
		return make([]float64, len(x)), x, false
	}
	shares = make([]float64, len(x))
	for r, v := range x {
		shares[r] = v / agg
	}
	return shares, x, ok
}

// Newton's constants: the forward-difference step in u = ln x, the
// iterations and the smallest line-search fraction before handing over to
// RK4, the Armijo factor, and the full step that counts as arrived.
const (
	newtonH        = 1e-7
	newtonIters    = 50
	newtonMinAlpha = 0x1p-20
	newtonArmijo   = 1e-4
	newtonDone     = 1e-6
)

// newton solves Eq. 3's per-path balance g_r(x) = (dx_r/dt)/x_r² = 0 by
// damped Newton in u = ln x, from x0. Dividing by x_r² removes the root at
// x_r = 0 that dx/dt itself has; solving in logs keeps every iterate positive
// without a floor and makes a step a relative change of rate.
//
// The Jacobian ∂g/∂u is a forward difference, not a closed form: ψ is
// described once, in core's table, and some entries have max kinks, so a
// closed form would describe every algorithm a second time. It only steers
// the step; the residual decides. A step is capped at |Δu_r| ≤ 1 and halved
// until the merit max_r |g_r|·x_r falls by the Armijo factor, its weights x_r
// held at the current iterate so that the Newton step is a descent direction.
// Iteration stops after a full step of at most newtonDone, or when no step
// contracts; the result is then held to Equilibrium's test of settled,
// unfloored. All scratch is allocated here, once per solve.
func (s *System) newton(x0 []float64, tol float64) ([]float64, bool) {
	n := len(x0)
	x := append([]float64(nil), x0...)
	buf := make([]float64, 6*n+n*n)
	d, xt := buf[:n], buf[n:2*n]
	f, g, ft, gt := buf[2*n:3*n], buf[3*n:4*n], buf[4*n:5*n], buf[5*n:6*n]
	jac := buf[6*n:]
	eh := math.Exp(newtonH)
	s.balance(x, f, g)
	m := merit(g, x)
iterate:
	for it := 0; it < newtonIters && m > 0; it++ {
		for j := range x {
			copy(xt, x)
			xt[j] = x[j] * eh
			s.balance(xt, ft, gt)
			for i := range g {
				jac[i*n+j] = (gt[i] - g[i]) / newtonH
			}
		}
		for i, v := range g {
			d[i] = -v
		}
		solveInPlace(jac, d)
		var step float64
		for _, v := range d {
			step = math.Max(step, math.Abs(v))
		}
		if !(step < math.Inf(1)) { // a singular Jacobian
			break
		}
		// t is the fraction of the Newton step taken, at most |Δu_r| ≤ 1.
		t := math.Min(1, 1/step)
		for alpha := 1.0; ; alpha /= 2 {
			if alpha < newtonMinAlpha {
				break iterate
			}
			for r := range xt {
				xt[r] = x[r] * math.Exp(alpha*t*d[r])
			}
			s.balance(xt, ft, gt)
			if merit(gt, x) <= (1-newtonArmijo*alpha*t)*m {
				t *= alpha
				break
			}
		}
		copy(x, xt)
		f, ft, g, gt = ft, f, gt, g
		m = merit(g, x)
		if t == 1 && step <= newtonDone {
			break
		}
	}
	for r, v := range x {
		if !(math.Abs(f[r]) <= tol*math.Max(v, 1)) {
			return x, false
		}
	}
	return x, true
}

// balance evaluates dx/dt at x into f and the balance f_r/x_r² into g.
func (s *System) balance(x, f, g []float64) {
	s.Derivative(x, f)
	for r, v := range x {
		g[r] = f[r] / (v * v)
	}
}

// merit is max_r |g_r|·w_r, NaN if any term is.
func merit(g, w []float64) float64 {
	var m float64
	for r, v := range g {
		if a := math.Abs(v) * w[r]; !(a <= m) {
			m = a
		}
	}
	return m
}

// solveInPlace overwrites b with the solution y of a·y = b by Gaussian
// elimination with partial pivoting, destroying a (row-major, len(b)²). A
// singular a leaves a non-finite entry in b.
func solveInPlace(a, b []float64) {
	n := len(b)
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i*n+k]) > math.Abs(a[p*n+k]) {
				p = i
			}
		}
		if p != k {
			for j := k; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			b[k], b[p] = b[p], b[k]
		}
		for i := k + 1; i < n; i++ {
			c := a[i*n+k] / a[k*n+k]
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= c * a[k*n+j]
			}
			b[i] -= c * b[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		v := b[k]
		for j := k + 1; j < n; j++ {
			v -= a[k*n+j] * b[j]
		}
		b[k] = v / a[k*n+k]
	}
}

func (s *System) minRTT() float64 {
	min := math.Inf(1)
	for _, p := range s.Paths {
		if p.RTT < min {
			min = p.RTT
		}
	}
	if math.IsInf(min, 1) {
		return 0.01
	}
	return min
}

// AggregateRate sums the rate vector.
func AggregateRate(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum
}

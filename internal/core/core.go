// Package core implements the paper's primary contribution: the general
// multipath congestion-control model of Eq. 3 — window evolution decomposed
// into a traffic-shifting parameter ψ_r, a decrease parameter β_r, a loss
// signal λ_r and a compensative parameter φ_r — together with the existing
// algorithms it generalizes (EWTCP, Coupled, LIA, OLIA, Balia, ecMTCP,
// wVegas), the single-path baselines (Reno, DCTCP), and the paper's new
// designs: DTS (Delay-based Traffic Shifting, Eq. 5 / Algorithm 1) and the
// extended DTS with the energy-proportional price term (Eq. 6–9).
//
// Algorithms are pure window-evolution policies: the transport layer
// (internal/tcp, internal/mptcp) keeps a View per subflow current and asks
// the algorithm how the congestion window changes on ACKs and losses.
// Algorithm values are per-connection: create one instance per connection
// via New.
package core

import "fmt"

// View is the congestion-control-visible state of one subflow. RTTs are in
// seconds, windows in packets (MSS units).
type View struct {
	Cwnd     float64 // congestion window
	SSThresh float64
	SRTT     float64 // smoothed RTT
	LastRTT  float64 // most recent RTT sample
	BaseRTT  float64 // minimum RTT observed on the path
	Price    float64 // echoed per-path energy price (0 unless charged)

	InSlowStart bool
}

// Rate returns the subflow's current sending rate x_r = w_r / RTT_r in
// packets per second, the quantity the paper's fluid model works with.
func (v View) Rate() float64 {
	if v.SRTT <= 0 {
		return 0
	}
	return v.Cwnd / v.SRTT
}

// SumRates returns Σ_k x_k over all subflows of the connection.
func SumRates(flows []View) float64 {
	var sum float64
	for _, f := range flows {
		sum += f.Rate()
	}
	return sum
}

// SumCwnd returns Σ_k w_k over all subflows.
func SumCwnd(flows []View) float64 {
	var sum float64
	for _, f := range flows {
		sum += f.Cwnd
	}
	return sum
}

// Algorithm is a (possibly coupled) congestion-control algorithm. Increase
// and Decrease are consulted by the transport in congestion avoidance;
// standard slow start is handled by the transport itself.
type Algorithm interface {
	Name() string

	// Increase returns the congestion-window increment, in packets, applied
	// for one newly acknowledged segment on subflow r.
	Increase(flows []View, r int) float64

	// Decrease returns the new congestion window for subflow r after a loss
	// event (the transport floors it at its minimum window).
	Decrease(flows []View, r int) float64
}

// AckObserver is implemented by algorithms that maintain internal state per
// acknowledgement (OLIA's loss intervals, DCTCP's mark fraction). ece
// reports whether the ACK carried an ECN echo.
type AckObserver interface {
	OnAck(flows []View, r int, ackedPkts int, ece bool)
}

// LossObserver is implemented by algorithms that track loss events beyond
// the window decrease itself.
type LossObserver interface {
	OnLoss(flows []View, r int)
}

// Introspector is implemented by algorithms that expose their internal
// tunable components — the quantities the paper's model decomposes window
// evolution into (ψ_r, ε_r, per-path prices, mark fractions) — for
// observability. Introspect writes the components for subflow r, evaluated
// against the current views, into the caller's map: samplers reuse one map
// per subflow across ticks, so steady-state introspection allocates
// nothing. Implementations overwrite their key set — stable for the
// lifetime of the instance, so samplers can fix their series up front —
// and leave other keys untouched.
type Introspector interface {
	Introspect(flows []View, r int, out map[string]float64)
}

// ClockUser is implemented by algorithms whose window law is a function of
// elapsed wall-clock time (CUBIC). The transport injects its clock (in
// seconds) right after construction; an algorithm left without a clock
// falls back to a time-free approximation.
type ClockUser interface {
	SetClock(now func() float64)
}

// TimeoutObserver is implemented by algorithms that must reset internal
// state when subflow r suffers a retransmission timeout or its path is
// declared failed (CUBIC discards its cubic epoch — the pre-timeout
// plateau no longer describes the path).
type TimeoutObserver interface {
	OnTimeout(flows []View, r int)
}

// MembershipObserver is implemented by algorithms with cross-subflow state
// that must react when a subflow leaves service (path declared dead) or
// rejoins (path revived) — wVegas renormalizes its rate-share weights so
// they keep summing to one over the live set.
type MembershipObserver interface {
	OnSubflowDown(r int)
	OnSubflowUp(r int)
}

// Weighted is implemented by algorithms that maintain an explicit
// per-subflow weight vector with Σ weights = 1 (wVegas); the invariant
// checker bounds the sum. The returned slice is owned by the algorithm and
// must not be modified by the caller.
type Weighted interface {
	Weights() []float64
}

// RoundTuner is implemented by algorithms that adjust the window once per
// RTT round rather than per ACK (wVegas — the paper's δ=1 case — and
// DCTCP's alpha update). The transport calls OnRound at each round boundary
// of subflow r; the returned values replace cwnd and ssthresh.
type RoundTuner interface {
	OnRound(flows []View, r int) (cwnd, ssthresh float64)
}

// Entry describes one registered algorithm, once, for both sides of the
// repository. New builds the per-connection policy the transport consults
// on every ACK — the kernel's per-ACK form, hand-written. The other fields
// are the algorithm's Eq. 3 description, which internal/fluid builds its
// systems from: exactly one of a traffic-shifting parameter (Psi, Eps or
// their product), Delay, or NoModel is set.
type Entry struct {
	Name string
	New  func() Algorithm

	// Psi is the §IV decomposition ψ_r(x_s) (model.go).
	Psi ParamFunc

	// Eps is the DTS family's delay factor ε as a function of
	// baseRTT_r/RTT_r (Eq. 5). Alone it is ψ_r = c·ε_r at the paper's
	// c = 1; next to Psi it scales it, ψ_r = ε_r·Psi (Modified LIA). The
	// priced variants carry the same ψ: their compensative term is a
	// property of the scenario's link prices and enters a fluid system
	// through Phi.
	Eps func(ratio float64) float64

	// Residual names what the per-ACK form of New does that ψ does not
	// say — a cap, an extra term, another discretization. Empty means
	// Increase is ψ through the per-ACK form of Eq. 3 and nothing else
	// (checked for every entry by TestModelDecompositionMatchesDirectForms).
	Residual string

	// Delay marks the delay-based family: it holds per-path backlog below
	// the loss knee instead of probing for it, so the Kelly loss price
	// does not model it and the fluid side answers with the free-capacity
	// split over the paths.
	Delay bool

	// NoModel is the reason an algorithm has no fluid counterpart and only
	// the packet backend can answer for it.
	NoModel string
}

const liaCap = "RFC 6356's min(·, 1/w_r) cap on the per-ACK increase"

// table is the registry, sorted by name.
var table = []Entry{
	{Name: "balia", New: func() Algorithm { return NewBalia() }, Psi: PsiBalia},
	{Name: "coupled", New: func() Algorithm { return NewCoupled() }, Psi: PsiCoupled,
		Residual: "the NSDI'11 per-ACK form 1/w_total where ψ gives Kelly & Voice's w_r/w_total²"},
	// Per-subflow CUBIC is uncoupled, and on disjoint DropTail bottlenecks
	// any uncoupled loss-based law settles at the capacity split: the
	// window-law details shift the loss rate, not the equilibrium share.
	{Name: "cubic", New: func() Algorithm { return NewCubic() }, Psi: PsiUncoupled,
		Residual: "the time-based CUBIC window law once the transport sets a clock"},
	{Name: "dctcp", New: func() Algorithm { return NewDCTCP() },
		NoModel: "its equilibrium is set by the ECN marking threshold, which the Kelly loss price does not represent"},
	{Name: "dts", New: func() Algorithm { return &DTS{C: 1} }, Eps: EpsExact},
	{Name: "dts-lia", New: func() Algorithm { return &DTS{C: 1, LIA: true} }, Eps: EpsExact, Psi: PsiLIA, Residual: liaCap},
	{Name: "dts-taylor", New: func() Algorithm { return &DTS{C: 1, Taylor: true} }, Eps: epsTaylorAt},
	{Name: "dtsep", New: func() Algorithm { return &DTS{C: 1, Priced: true, Kappa: DefaultKappa} }, Eps: EpsExact},
	{Name: "dtsep-lia", New: func() Algorithm { return &DTS{C: 1, LIA: true, Priced: true, Kappa: DefaultKappa} },
		Eps: EpsExact, Psi: PsiLIA, Residual: liaCap},
	{Name: "ecmtcp", New: NewECMTCP, Psi: PsiECMTCP},
	{Name: "ewtcp", New: func() Algorithm { return NewEWTCP() }, Psi: PsiEWTCP},
	{Name: "lia", New: func() Algorithm { return NewLIA() }, Psi: PsiLIA, Residual: liaCap},
	{Name: "olia", New: func() Algorithm { return NewOLIA() }, Psi: PsiOLIA,
		Residual: "the α_r/w_r opportunistic shifting term"},
	{Name: "reno", New: func() Algorithm { return NewReno() }, Psi: PsiUncoupled},
	{Name: "vegas", New: func() Algorithm { return NewVegas() }, Delay: true},
	{Name: "wvegas", New: func() Algorithm { return NewWVegas() }, Delay: true},
}

// Lookup returns the registered entry for an algorithm name.
func Lookup(name string) (Entry, bool) {
	for i := range table {
		if table[i].Name == name {
			return table[i], true
		}
	}
	return Entry{}, false
}

// New creates a per-connection instance of the named algorithm.
func New(name string) (Algorithm, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown congestion control algorithm %q", name)
	}
	return e.New(), nil
}

// MustNew is New for callers with a known-valid name; it panics otherwise.
func MustNew(name string) Algorithm {
	a, err := New(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names lists the registered algorithms in sorted order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

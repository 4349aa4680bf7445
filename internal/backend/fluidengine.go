package backend

import (
	"context"
	"fmt"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/fluid"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
)

// FluidEngine answers scenarios by solving the paper's Eq. 3 equilibrium.
// It costs microseconds per scenario where the packet engine costs
// seconds, and it answers only equilibrium questions: no loss-episode
// transients, no failover dynamics, no per-RTT behaviour (docs/backends.md
// spells out the fidelity model).
type FluidEngine struct{}

// Name implements Engine.
func (FluidEngine) Name() string { return "fluid" }

// Run implements Engine: it answers what an equilibrium over disjoint paths
// can say and refuses the rest of the Scenario vocabulary by name.
func (FluidEngine) Run(ctx context.Context, sc Scenario) (Result, error) {
	for _, r := range fluidRefusals {
		if r.set(sc) {
			return Result{}, fmt.Errorf("backend: the fluid engine cannot model %s (%s); use the packet engine", r.what, r.why)
		}
	}
	return solveFluid(ctx, sc, nil)
}

// fluidRefusals is what a Scenario can say that Eq. 3's equilibrium cannot
// answer (docs/backends.md, "What the fluid engine refuses"). A topology
// that is not one pair over disjoint routes, and an algorithm without a
// fluid mapping, are refused by solveFluid itself.
var fluidRefusals = []struct {
	what string
	set  func(Scenario) bool
	why  string
}{
	{"a fault schedule", func(s Scenario) bool { return s.Faults != "" },
		"failure and recovery are transients; the model is a fixed point"},
	{"a finite transfer", func(s Scenario) bool { return s.TransferBytes > 0 },
		"completion time is slow start and drain, not equilibrium"},
	{"a flow population", func(s Scenario) bool { return s.Population != nil },
		"arrivals and departures never settle"},
	{"Pareto cross traffic", func(s Scenario) bool { return s.Cross },
		"bursts flip paths between states; the model carries a constant cross load"},
	{"a receive window", func(s Scenario) bool { return s.Rwnd > 0 },
		"rwnd, not the congestion window, would bind the rate"},
	{"a subflow fan-out", func(s Scenario) bool {
		e, _ := topo.Lookup(s.Topology)
		return e.Routes > 0 && s.Subflows != 0 && s.Subflows != e.Routes
	},
		"subflows sharing a route share its loss signal; the model has one subflow per path"},
	{"a priced path", func(s Scenario) bool { return s.Price != nil },
		"the algorithm table does not say who reads the price"},
	{"transport options", func(s Scenario) bool { return s.Transport != (tcp.Config{}) },
		"the model has no slow start or RTO to tune"},
}

// solveFluid is the one model-side protocol, shared by the engine and the
// conformance harness, which validates exactly this code against packet
// runs: the algorithm's fluid.ModelFor mapping at the scenario's operating
// point, the sharpened Kelly price, the EquilibriumShares solve. phi, when
// non-nil, is a compensative term (Eq. 9 in rate form) — the harness's
// priced row; no Scenario carries link prices.
func solveFluid(ctx context.Context, sc Scenario, phi func(x []float64, r int) float64) (Result, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s, model, routes, op, err := fluidSystem(sc, phi)
	if err != nil {
		return Result{}, err
	}
	power, err := powerModel(sc.EnergyModel, routes)
	if err != nil {
		return Result{}, err
	}
	res := Result{Fidelity: "fluid", Op: op}

	var shares, rates []float64
	if model.Oracle != nil {
		// Delay-based family: the oracle fills each path's free capacity.
		shares = model.Oracle(s.Paths)
		rates = make([]float64, len(s.Paths))
		for r, p := range s.Paths {
			free := p.Capacity - p.Cross
			if free < 0 {
				free = 0
			}
			rates[r] = free
		}
		res.Converged = true
	} else {
		shares, rates, res.Converged = s.EquilibriumShares(1e-3, 400000)
	}

	res.Shares = shares
	res.RateBps = make([]float64, len(rates))
	for r, x := range rates {
		res.RateBps[r] = x * 8 * tcp.WireSize
		res.AggregateBps += res.RateBps[r]
	}
	res.Joules = fluidJoules(power, routes, res, sc.Horizon-sc.Warmup)
	return res, nil
}

// fluidSystem lowers a defaulted scenario to the Eq. 3 System solveFluid
// solves: fluidPaths' paths and operating point, the algorithm's ModelFor
// mapping there, the sharpened Kelly price and the compensative term phi.
// For a delay-based algorithm s.Psi is nil and model.Oracle answers instead.
func fluidSystem(sc Scenario, phi func(x []float64, r int) float64) (s *fluid.System, model fluid.AlgModel, routes []*netem.Path, op OperatingPoint, err error) {
	model, ok := fluid.ModelFor(sc.Algorithm)
	if !ok {
		return nil, model, nil, op, fmt.Errorf("backend: %q has no fluid mapping; use the packet engine", sc.Algorithm)
	}
	routes, paths, op, err := fluidPaths(sc)
	if err != nil {
		return nil, model, nil, op, err
	}
	s = &fluid.System{Paths: paths, PriceExp: priceExp, Phi: phi}
	if model.Psi != nil {
		s.Psi = model.Psi(op.RTT, op.Frac)
	}
	return s, model, routes, op, nil
}

// fluidPaths converts a topology into its routes, their Eq. 3 paths and the
// operating point the model is evaluated at. Capacities and base RTTs are
// read off the built netem topology (so serialization delays are included
// exactly as the packet engine sees them). The default operating point
// models the loss-based steady state: the bottleneck DropTail queue
// oscillates between empty (right after a synchronized drop) and full, so
// SRTT is estimated at baseRTT plus half the queue's drain time.
// Scenario.Op overrides the estimate with a measured one.
func fluidPaths(sc Scenario) ([]*netem.Path, []fluid.Path, OperatingPoint, error) {
	net, err := topo.Build(sim.NewEngine(1), sc.Topology, sc.Net)
	if err != nil {
		return nil, nil, OperatingPoint{}, fmt.Errorf("backend: %w", err)
	}
	pair, ok := net.(*topo.Pair)
	if !ok {
		return nil, nil, OperatingPoint{}, fmt.Errorf("backend: the fluid engine models one pair over disjoint paths, not %q; use the packet engine", sc.Topology)
	}
	ps := pair.Paths(0, 1, 0)

	paths := make([]fluid.Path, len(ps))
	op := OperatingPoint{RTT: make([]float64, len(ps)), Frac: make([]float64, len(ps))}
	for r, p := range ps {
		rate := float64(p.MinRate())
		base := p.BaseRTT(tcp.WireSize, tcp.AckBytes).Seconds()
		queueDelay := float64(pair.CrossEntry(r).QueueLimit()) * tcp.WireSize * 8 / rate
		srtt := base + queueDelay/2
		op.RTT[r] = srtt
		op.Frac[r] = base / srtt
		paths[r] = fluid.Path{RTT: srtt, Capacity: rate / (8 * tcp.WireSize)}
	}
	if sc.Op != nil {
		op = *sc.Op
		for r := range paths {
			paths[r].RTT = op.RTT[r]
		}
	}
	if sc.Load > 0 {
		last := len(paths) - 1
		paths[last].Cross = sc.Load * paths[last].Capacity
	}
	return ps, paths, op, nil
}

// fluidJoules estimates the measurement-window energy the packet engine's
// meter would integrate: the host power model evaluated once at the
// equilibrium — the Sample of the solved per-path rates at the operating
// point's RTTs — times the window: the steady-state reading, with no
// transient contribution by construction.
func fluidJoules(model energy.Model, routes []*netem.Path, res Result, window sim.Time) float64 {
	if model == nil {
		return 0
	}
	paths := make([]energy.PathSample, len(routes))
	for r, p := range routes {
		paths[r] = energy.PathSample{Name: p.Name, ThroughputBps: res.RateBps[r], RTTSeconds: res.Op.RTT[r]}
	}
	return model.Power(energy.PathsSample(paths)) * window.Seconds()
}

// Package backend owns the one description of a run, the one sequence that
// runs it, and the two machines that can answer it. A Scenario — registered
// topology and its parameters, algorithm, subflows, transfer, cross traffic,
// fault schedule, optional flow population, priced path, energy model,
// seed, horizon — is what every front-end (the engines here,
// internal/chaos, cmd/mptcp-sim, the figure runners of internal/exp, the
// examples) lowers its own vocabulary to; Validate checks it, Wire builds
// it, and Run takes it from a fresh engine through observation, the
// front-end's Stages and settling to a closed record — each once
// (ARCHITECTURE.md, "How a run is assembled").
//
// Two engines answer a Scenario with a Result (per-path equilibrium rates
// and shares, aggregate goodput, energy estimate, fidelity tag) behind the
// Engine interface. PacketEngine wires the full netem/tcp/mptcp stack —
// every ACK clock, queue drop and RTO — and is the ground truth.
// FluidEngine solves the paper's Eq. 3 equilibrium at a fraction of the
// cost, microseconds per point instead of seconds, and refuses by name what
// an equilibrium cannot say. RunConformance is the differential harness
// between the two — a table of scenarios run through the engines' own
// measurement and solve code — so the model that answers sweeps is the
// model that was validated. Sweep fans a (topology × algorithm × load) grid
// to the fluid engine and re-runs a deterministic, seed-derived sample on
// the packet engine so fluid answers are never trusted blind.
//
// The contract, the fidelity model (what fluid can and cannot answer), and
// backend-selection guidance are documented in docs/backends.md.
package backend

import (
	"context"
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/faults"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
)

// priceExp is the Kelly price exponent solveFluid uses, sharpened beyond
// the fluid package's default b = 6: the packet scenarios' DropTail queues
// are a hard capacity knee (no loss below capacity, heavy loss above), and
// a soft price would tax flows well below capacity — visibly starving a
// cross-loaded path where the real subflow still holds its share.
const priceExp = 20

// Scenario is the declarative description of one run. Front-ends fill it
// literally and hand it to Run; the engines additionally apply
// WithDefaults, so for them the zero values of Seed/Horizon/Warmup/
// EnergyModel take defaults and only Topology and Algorithm are required.
type Scenario struct {
	// Topology names a registered topology (topo.Names); Net carries the
	// size and link parameters that topology reads. Topology is empty only
	// when Wire is handed ready paths.
	Topology string
	Net      topo.Params

	// Algorithm names the measured connection's congestion control
	// (core.Names); empty means no measured connection — a population
	// alone, or a bare substrate the caller places its own users on. The
	// fluid engine additionally requires a fluid mapping (fluid.ModelFor).
	Algorithm string
	// Subflows fans the measured connection over the topology's routes:
	// round-robin over a one-pair topology's (0 = one per route), the
	// fabric's own Paths(host 0, last host, n) otherwise (0 is rejected).
	Subflows int
	// TransferBytes is the measured connection's transfer (0 = long-lived),
	// Rwnd its receive window in segments (0 = unlimited), Transport its
	// per-subflow TCP parameterization.
	TransferBytes int64
	Rwnd          int64
	Transport     tcp.Config

	// Load is unresponsive CBR cross traffic on the LAST route's shared
	// hop, as a fraction of that route's capacity: 0 is none, values at or
	// above 1 saturate the path and are rejected. Loading the last path
	// follows the conformance harness's traffic-shifting row.
	Load float64
	// Cross adds one Pareto on/off source per route (§VI-B), bursting at
	// the topology's own rate (topo.Pair.BurstRate). Both need a topology
	// with cross-traffic entries.
	Cross bool
	// Price charges the Eq. 6 energy price on one of the measured
	// connection's paths.
	Price *Price
	// Faults is a schedule in the faults.Parse grammar; targets resolve
	// against the measured connection's paths.
	Faults string
	// Population, when set, runs an open-loop flow population on a
	// multi-host topology, alongside the measured connection if there is
	// one. Nil Arrivals means Poisson at 40 flows/s per host; Check is
	// taken from the run's observer.
	Population *flows.Config

	// EnergyModel names the host power model metering the measured
	// connection (energy.Names: "i7", "xeon", "wifi", "none", and "nexus5",
	// the handset, which prices power per radio and so needs every path of
	// the connection to be one — the routes of "hetwireless").
	EnergyModel string

	// Seed seeds the engine (engines default it to 1 — the conformance
	// seed). The fluid engine is deterministic and ignores it.
	Seed int64
	// Horizon is the simulated run length and Warmup the prefix the engines
	// exclude from measurement (engine defaults 60 s and Horizon/3 — the
	// conformance harness's window). With a Warmup the meter is handed over
	// stopped, for whoever measures the window to start.
	Horizon sim.Time
	Warmup  sim.Time

	// Op, when set, pins the operating point (per-path SRTT and
	// baseRTT/SRTT) the fluid engine parameterizes ψ with, instead of the
	// engine's own topology-derived estimate. The conformance harness
	// injects each packet run's measured operating point here; ordinary
	// sweeps leave it nil. The packet engine ignores it.
	Op *OperatingPoint
}

// Price is the per-hop Eq. 6 price ρ + γ·max(0, qlen − QTarget) charged on
// every forward link of path Path.
type Price struct {
	Path       int
	Rho, Gamma float64
	QTarget    int
}

// OperatingPoint is the measured or estimated state the Eq. 3 model is
// evaluated at: per-path smoothed RTTs (seconds) and baseRTT/SRTT
// fractions, index-aligned with the topology's paths.
type OperatingPoint struct {
	RTT  []float64
	Frac []float64
}

// WithDefaults returns the scenario with zero values replaced by the
// engines' documented defaults.
func (s Scenario) WithDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Horizon == 0 {
		s.Horizon = 60 * sim.Second
	}
	if s.Warmup == 0 {
		s.Warmup = s.Horizon / 3
	}
	if s.EnergyModel == "" {
		s.EnergyModel = "i7"
	}
	return s
}

// Validate checks the scenario, as written, against the registries and
// against itself. It is the one gate every front-end's input goes through.
func (s Scenario) Validate() error { return s.validate(0) }

// validate is Validate for a scenario wired over ready routes (0: over its
// registered topology).
func (s Scenario) validate(ready int) error {
	e := topo.Entry{Routes: ready}
	if ready == 0 {
		var ok bool
		if e, ok = topo.Lookup(s.Topology); !ok {
			return fmt.Errorf("backend: unknown topology %q (have %v)", s.Topology, topo.Names())
		}
	} else if s.Topology != "" || s.Load != 0 || s.Cross || s.Population != nil {
		return fmt.Errorf("backend: ready paths take no topology name, cross traffic or population")
	}
	measured := s.Algorithm != ""
	if _, ok := core.Lookup(s.Algorithm); measured && !ok {
		return fmt.Errorf("backend: unknown algorithm %q (have %v)", s.Algorithm, core.Names())
	}
	if s.Subflows < 0 || s.TransferBytes < 0 || s.Rwnd < 0 {
		return fmt.Errorf("backend: negative subflows, transfer or receive window")
	}
	if s.Load < 0 || s.Load >= 1 {
		return fmt.Errorf("backend: load %v outside [0, 1)", s.Load)
	}
	if (s.Load > 0 || s.Cross) && e.Routes == 0 {
		return fmt.Errorf("backend: topology %q has no cross-traffic entry", s.Topology)
	}
	if measured && e.Fabric && s.Subflows == 0 {
		return fmt.Errorf("backend: a measured connection on %q needs a subflow count", s.Topology)
	}
	if s.Population != nil && !e.Fabric {
		return fmt.Errorf("backend: a flow population needs a multi-host topology, not %q", s.Topology)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("backend: horizon %v must be positive", s.Horizon.Duration())
	}
	if s.Warmup < 0 || s.Warmup >= s.Horizon {
		return fmt.Errorf("backend: warmup %v outside [0, horizon %v)", s.Warmup, s.Horizon)
	}
	model, err := energy.Lookup(s.EnergyModel)
	if err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	if !measured && (model != nil || s.Price != nil || s.Faults != "") {
		return fmt.Errorf("backend: energy model, priced path and fault schedule need a measured connection")
	}
	if s.Price != nil && s.Price.Path < 0 {
		return fmt.Errorf("backend: priced path %d", s.Price.Path)
	}
	if s.Faults != "" {
		if _, err := faults.Parse(s.Faults); err != nil {
			return fmt.Errorf("backend: %w", err)
		}
	}
	if s.Op != nil && (len(s.Op.RTT) != e.Routes || len(s.Op.Frac) != e.Routes) {
		return fmt.Errorf("backend: operating point has %d/%d entries for %d paths",
			len(s.Op.RTT), len(s.Op.Frac), e.Routes)
	}
	return nil
}

// Result is a backend-neutral answer. Fidelity tags which machinery
// produced it — "packet" results carry the full transient behaviour of the
// discrete-event run, "fluid" results are equilibrium solutions only (see
// docs/backends.md for what that excludes).
type Result struct {
	// Fidelity is "packet" or "fluid".
	Fidelity string

	// RateBps is the per-path goodput over the measurement window in
	// bits/s; Shares is the same normalized to the aggregate;
	// AggregateBps is the sum.
	RateBps      []float64
	Shares       []float64
	AggregateBps float64

	// Joules is the energy the scenario's host power model integrates over
	// the measurement window (0 when EnergyModel is "none").
	Joules float64

	// Converged is always true for packet results. For fluid results it
	// reports whether the integration settled — false means the rates are
	// the last iterate of a non-converging run and must not be read as an
	// equilibrium.
	Converged bool

	// Op is the operating point the result was computed at: measured
	// (packet) or estimated/injected (fluid).
	Op OperatingPoint

	// Events is the discrete-event count a packet run processed (0 for
	// fluid) — the cost signal behind the backend-selection guidance.
	Events uint64
}

// Engine answers scenarios at one fidelity. Implementations are stateless
// and safe for concurrent use; every Run builds its own world.
type Engine interface {
	Name() string
	Run(ctx context.Context, sc Scenario) (Result, error)
}

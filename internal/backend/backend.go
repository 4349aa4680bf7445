// Package backend puts the packet simulator and the Eq. 3 fluid model
// behind one backend-neutral seam: a Scenario (topology + algorithm +
// cross-traffic load + horizon) goes in, a Result (per-path equilibrium
// rates and shares, aggregate goodput, energy estimate, fidelity tag)
// comes out, and the Engine interface hides which machinery answered.
//
// Two engines implement it. PacketEngine runs the full netem/tcp/mptcp
// stack — every ACK clock, queue drop and RTO — and is the ground truth.
// FluidEngine solves the paper's Eq. 3 equilibrium at a fraction of the
// cost: microseconds per point instead of seconds. RunConformance is the
// differential harness between the two — a table of scenarios run through
// the engines' own measurement and solve code — so the model that answers
// sweeps is the model that was validated. Sweep fans a
// (topology × algorithm × load) grid to the fluid engine and re-runs a
// deterministic, seed-derived sample on the packet engine so fluid answers
// are never trusted blind.
//
// The contract, the fidelity model (what fluid can and cannot answer), and
// backend-selection guidance are documented in docs/backends.md.
package backend

import (
	"context"
	"fmt"
	"sort"

	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// Wire conventions: a full segment occupies wirePkt bytes on the wire (MSS 1448 + 52 header),
// ACKs ride headerBytes-sized packets.
const (
	wirePkt     = 1500
	mssBytes    = 1448
	headerBytes = 52
)

// priceExp is the Kelly price exponent solveFluid uses, sharpened beyond
// the fluid package's default b = 6: the packet scenarios' DropTail queues
// are a hard capacity knee (no loss below capacity, heavy loss above), and
// a soft price would tax flows well below capacity — visibly starving a
// cross-loaded path where the real subflow still holds its share.
const priceExp = 20

// Scenario is a backend-neutral experiment description: which topology,
// which algorithm, how much competing load, and how long to (simulatedly)
// run. The zero values of Seed/Horizon/Warmup/EnergyModel take defaults;
// Topology and Algorithm are required.
type Scenario struct {
	// Topology names a registered topology (see Topologies).
	Topology string

	// Algorithm names a registered congestion-control algorithm
	// (core.Names). The fluid engine additionally requires a fluid mapping
	// (fluid.ModelFor) — every registered algorithm has one except dctcp.
	Algorithm string

	// Load is the cross-traffic level: a CBR source on the LAST path's
	// shared hop sending at Load × that path's capacity. Zero means no
	// competing traffic; values at or above 1 saturate the path and are
	// rejected. Loading the last path follows the conformance harness's
	// traffic-shifting row (cross on the slower path).
	Load float64

	// Seed seeds the packet engine (default 1 — the conformance seed).
	// The fluid engine is deterministic and ignores it.
	Seed int64

	// Horizon is the simulated run length (default 60 s); Warmup is the
	// prefix excluded from measurement (default Horizon/3). The defaults
	// reproduce the conformance harness's 60 s / 20 s window.
	Horizon sim.Time
	Warmup  sim.Time

	// EnergyModel selects the host power model integrated over the
	// measurement window: "i7" (default), "xeon", or "none".
	EnergyModel string

	// Op, when set, pins the operating point (per-path SRTT and
	// baseRTT/SRTT) the fluid engine parameterizes ψ with, instead of the
	// engine's own topology-derived estimate. The conformance harness
	// injects each packet run's measured operating point here; ordinary
	// sweeps leave it nil. The packet engine ignores it.
	Op *OperatingPoint
}

// OperatingPoint is the measured or estimated state the Eq. 3 model is
// evaluated at: per-path smoothed RTTs (seconds) and baseRTT/SRTT
// fractions, index-aligned with the topology's paths.
type OperatingPoint struct {
	RTT  []float64
	Frac []float64
}

// WithDefaults returns the scenario with zero values replaced by the
// documented defaults.
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

// Validate checks the scenario against the registries. It validates the
// defaulted form, so a zero-filled scenario with valid Topology/Algorithm
// passes.
func (s Scenario) Validate() error {
	s = s.WithDefaults()
	top, ok := TopologyFor(s.Topology)
	if !ok {
		return fmt.Errorf("backend: unknown topology %q (have %v)", s.Topology, Topologies())
	}
	if _, err := core.New(s.Algorithm); err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	if s.Load < 0 || s.Load >= 1 {
		return fmt.Errorf("backend: load %v outside [0, 1)", s.Load)
	}
	if s.Warmup >= s.Horizon {
		return fmt.Errorf("backend: warmup %v >= horizon %v", s.Warmup, s.Horizon)
	}
	if _, err := energyModel(s.EnergyModel); err != nil {
		return err
	}
	if s.Op != nil {
		if len(s.Op.RTT) != len(top.Paths) || len(s.Op.Frac) != len(top.Paths) {
			return fmt.Errorf("backend: operating point has %d/%d entries for %d paths",
				len(s.Op.RTT), len(s.Op.Frac), len(top.Paths))
		}
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

// Topology is a registered scenario topology: N parallel link-disjoint
// paths between one sender-receiver pair (topo.NPath).
type Topology struct {
	Name  string
	Desc  string
	Paths []topo.NPathSpec
}

// topologies is the registry. All specs are fully explicit (no NPathSpec
// defaults in play) so the fluid engine can read capacities and queues
// straight off them.
var topologies = map[string]Topology{
	"twopath-sym": {
		Name: "twopath-sym",
		Desc: "two symmetric 12 Mb/s paths, 20 ms delay",
		Paths: []topo.NPathSpec{
			{Rate: 12 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
			{Rate: 12 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
		},
	},
	"twopath-asym": {
		Name: "twopath-asym",
		Desc: "the conformance scenario: 16 + 8 Mb/s, 20 ms delay",
		Paths: []topo.NPathSpec{
			{Rate: 16 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
			{Rate: 8 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
		},
	},
	"threepath": {
		Name: "threepath",
		Desc: "three asymmetric paths: 24 + 12 + 6 Mb/s, 20 ms delay",
		Paths: []topo.NPathSpec{
			{Rate: 24 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
			{Rate: 12 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
			{Rate: 6 * 1e6, Delay: 20 * sim.Millisecond, Queue: 50},
		},
	},
	"hetdelay": {
		Name: "hetdelay",
		Desc: "heterogeneous delays: 16 Mb/s @ 10 ms + 8 Mb/s @ 40 ms",
		Paths: []topo.NPathSpec{
			{Rate: 16 * 1e6, Delay: 10 * sim.Millisecond, Queue: 50},
			{Rate: 8 * 1e6, Delay: 40 * sim.Millisecond, Queue: 50},
		},
	},
}

// Topologies lists the registered topology names in sorted order.
func Topologies() []string {
	names := make([]string, 0, len(topologies))
	for n := range topologies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TopologyFor looks a topology up by name.
func TopologyFor(name string) (Topology, bool) {
	t, ok := topologies[name]
	return t, ok
}

// energyModel resolves a Scenario.EnergyModel name; "none" returns nil.
func energyModel(name string) (energy.Model, error) {
	switch name {
	case "i7":
		return energy.NewI7(), nil
	case "xeon":
		return energy.NewXeon(), nil
	case "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("backend: unknown energy model %q (have i7, xeon, none)", name)
	}
}

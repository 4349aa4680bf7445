package check

import (
	"fmt"
	"math"
	"strings"

	"mptcpsim/internal/core"
	"mptcpsim/internal/fluid"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// The differential-conformance harness: for every multipath algorithm it
// runs the asymmetric two-path packet scenario, parameterizes the Eq. 3
// fluid model at the packet run's measured operating point (per-path SRTT
// and baseRTT/RTT ratio), solves the fluid equilibrium, and compares the
// per-path throughput shares. Agreement within each row's tolerance band is
// the evidence that the packet-level implementations follow the model they
// claim to implement. See EXPERIMENTS.md, "Validation methodology".

// ConformanceConfig parameterizes the harness. The zero value takes the
// documented defaults, which are what the committed golden was generated
// with.
type ConformanceConfig struct {
	Seed     int64    // engine seed (default 1)
	Duration sim.Time // total simulated run length (default 60 s)
	Warmup   sim.Time // excluded from measurement (default 20 s)
}

func (c ConformanceConfig) withDefaults() ConformanceConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * sim.Second
	}
	return c
}

// The fixed two-path scenario every row runs: asymmetric capacity (2:1) so
// the equilibrium shares are distinguishable from an even split, equal
// propagation delays so capacity — not RTT bias — drives the split.
const (
	confRate0   = 16 * netem.Mbps
	confRate1   = 8 * netem.Mbps
	confDelay   = 20 * sim.Millisecond
	confQueue   = 50
	confWirePkt = 1500 // wire size of a full segment (MSS 1448 + 52)
	// Cross traffic for the shifting row: half of path1's capacity. Loading
	// the path much harder starves it entirely in the fluid model (rates can
	// fall to zero there), while a packet subflow never drops below one
	// segment per RTT — the comparison is only meaningful while both sides
	// keep the path alive.
	confCrossBps = 4 * netem.Mbps
	confPriceRho = 1.0 // Eq. 6 price on path0's switch link (dtsep row)
)

// ConfRow is one algorithm's conformance verdict.
type ConfRow struct {
	Algorithm   string
	FluidShare  [2]float64 // per-path share of the fluid equilibrium
	PacketShare [2]float64 // per-path share measured in the packet run
	Delta       float64    // max |fluid − packet| over the two paths
	Tol         float64    // documented tolerance band
	Converged   bool       // fluid integration reached equilibrium
	OK          bool
}

// Conformance is the harness result: one row per algorithm plus the DTS
// traffic-shifting row.
type Conformance struct {
	Rows []ConfRow
}

// OK reports whether every row passed.
func (c *Conformance) OK() bool {
	for _, r := range c.Rows {
		if !r.OK {
			return false
		}
	}
	return true
}

// confSpec describes how to validate one algorithm. The fluid side of each
// row — ψ builder or oracle — comes from fluid.ModelFor, the same mapping
// the backend fluid engine uses (internal/backend), so the validator and
// the backend cannot drift apart.
type confSpec struct {
	name string
	alg  string // registry name for the packet run (defaults to name)
	tol  float64

	// phi adds a compensative term (dtsep row). nil for none.
	phi func(x []float64, r int) float64

	// price, when non-zero, is applied to path0's switch-to-switch link
	// before the packet run (the Eq. 6 charge the dtsep row needs).
	price float64

	// cross, when non-zero, runs CBR cross traffic at this rate on path1 —
	// the traffic-shifting scenario.
	cross int64
}

// algName returns the registry name the row runs and models.
func (s confSpec) algName() string {
	if s.alg != "" {
		return s.alg
	}
	return s.name
}

func confSpecs() []confSpec {
	return []confSpec{
		{name: "ewtcp", tol: 0.10},
		{name: "coupled", tol: 0.10},
		{name: "lia", tol: 0.10},
		{name: "olia", tol: 0.10},
		{name: "balia", tol: 0.10},
		// cubic: per-subflow CUBIC is uncoupled, and on disjoint DropTail
		// bottlenecks any uncoupled loss-based law settles at the capacity
		// split — fluid.ModelFor maps it to ψ_r = (Σx)²/x_r² (n independent
		// flows; the window-law details shift the loss rate, not the
		// equilibrium share).
		{name: "cubic", tol: 0.10},
		// wVegas is delay-based: it keeps per-path backlog near its Vegas
		// target instead of probing for loss, so the Kelly loss price of
		// Eq. 3 does not model it. fluid.ModelFor gives it the
		// free-capacity-split oracle the paper expects of it on disjoint
		// bottlenecks; same for plain per-subflow Vegas, which holds each
		// path's backlog in [α, β] independently.
		{name: "wvegas", tol: 0.10},
		{name: "vegas", tol: 0.10},
		{name: "dts", tol: 0.10},
		// dtsep: path0's switch link charges the Eq. 6 price rho, and the
		// fluid side carries the matching compensative term
		// φ_0 = κ·ρ·x_0² (Eq. 9 converted to rate form).
		{name: "dtsep", tol: 0.10, price: confPriceRho,
			phi: func(x []float64, r int) float64 {
				if r != 0 {
					return 0
				}
				return core.DefaultKappa * confPriceRho * x[0] * x[0]
			}},
		// dts-shift: DTS with cross traffic on path1 — the traffic-shifting
		// scenario. Wider band than the clean rows: the fluid model treats
		// cross traffic as an unresponsive constant load, but in the packet
		// scenario the DropTail queue drops CBR packets too, which leaves the
		// subflow a larger share than Eq. 3 predicts. The shifting DIRECTION
		// is asserted exactly (see TestConformanceShiftMovesShare); the
		// magnitude gets the 0.15 band.
		{name: "dts-shift", alg: "dts", tol: 0.15, cross: confCrossBps},
	}
}

// packetResult is the measured operating point of one packet-level run.
type packetResult struct {
	share [2]float64 // per-path goodput shares over the measurement window
	srtt  [2]float64 // time-averaged SRTT, seconds
	frac  [2]float64 // baseRTT / avg SRTT
}

// runPacket executes the two-path scenario for one spec and measures it.
func runPacket(cfg ConformanceConfig, spec confSpec) (packetResult, error) {
	eng := sim.NewEngine(cfg.Seed)
	net := topo.NewTwoPath(eng, topo.TwoPathConfig{
		Rates:      [2]int64{confRate0, confRate1},
		Delay:      confDelay,
		QueueLimit: confQueue,
	})
	if spec.price != 0 {
		// The switch-to-switch hop of path0 (the Eq. 6 charge point).
		net.Paths()[0].Forward[1].SetPrice(spec.price, 0, 0)
	}
	conn, err := mptcp.New(eng, mptcp.Config{Algorithm: spec.algName()}, 1, net.Paths()...)
	if err != nil {
		return packetResult{}, err
	}
	if spec.cross != 0 {
		workload.NewCBR(eng, net.Paths()[1].Forward[1:], spec.cross, confWirePkt).Start()
	}

	inv := New(eng)
	inv.FailFast = true
	inv.Watch(spec.name, conn)
	inv.WatchPaths(net.Paths()...)
	inv.Start()

	// Measurement: snapshot cumulative acks at warmup, sample SRTT on a
	// fixed cadence through the window, read the deltas at the horizon.
	var ackAt [2]int64
	var srttSum [2]float64
	var srttN int
	subs := conn.Subflows()
	eng.Schedule(cfg.Warmup, func() {
		for r := range ackAt {
			ackAt[r] = subs[r].Acked()
		}
	})
	var sample func()
	sample = func() {
		for r := range srttSum {
			srttSum[r] += subs[r].SRTT().Seconds()
		}
		srttN++
		if eng.Now() < cfg.Duration {
			eng.ScheduleAfter(250*sim.Millisecond, sample)
		}
	}
	eng.Schedule(cfg.Warmup, sample)

	conn.Start()
	eng.Run(cfg.Duration)
	inv.Final()

	var res packetResult
	var total float64
	var delta [2]float64
	for r := range delta {
		delta[r] = float64(subs[r].Acked() - ackAt[r])
		total += delta[r]
	}
	if total <= 0 {
		return res, fmt.Errorf("conformance %s: no goodput in measurement window", spec.name)
	}
	for r := range delta {
		res.share[r] = delta[r] / total
		res.srtt[r] = srttSum[r] / float64(srttN)
		if base := subs[r].BaseRTT().Seconds(); base > 0 && res.srtt[r] > 0 {
			res.frac[r] = math.Min(base/res.srtt[r], 1)
		} else {
			res.frac[r] = 1
		}
	}
	return res, nil
}

// confPaths is the fluid view of the fixed two-path scenario, optionally
// with the shifting row's cross load on path1.
func confPaths(pr packetResult, cross int64) []fluid.Path {
	paths := []fluid.Path{
		{RTT: pr.srtt[0], Capacity: float64(confRate0) / (8 * confWirePkt)},
		{RTT: pr.srtt[1], Capacity: float64(confRate1) / (8 * confWirePkt)},
	}
	if cross != 0 {
		paths[1].Cross = float64(cross) / (8 * confWirePkt)
	}
	return paths
}

// solveFluid computes the Eq. 3 equilibrium shares at the measured
// operating point, via the same fluid.ModelFor mapping and
// EquilibriumShares solve path the backend fluid engine uses.
func solveFluid(model fluid.AlgModel, spec confSpec, pr packetResult) ([2]float64, bool) {
	// PriceExp sharpens the Kelly price beyond its default b=6: the packet
	// scenario's DropTail queues are a hard capacity knee (no loss below
	// capacity, heavy loss above), and a soft price would tax flows well
	// below capacity — visibly starving the cross-loaded path of the
	// shifting row where the real subflow still holds its share.
	s := &fluid.System{Paths: confPaths(pr, spec.cross), PriceExp: 20}
	s.Psi = model.Psi(pr.srtt[:], pr.frac[:])
	s.Phi = spec.phi
	shares, _, ok := s.EquilibriumShares(1e-3, 400000)
	return [2]float64{shares[0], shares[1]}, ok
}

// RunConformance runs the full differential harness.
func RunConformance(cfg ConformanceConfig) (*Conformance, error) {
	cfg = cfg.withDefaults()
	out := &Conformance{}
	for _, spec := range confSpecs() {
		model, ok := fluid.ModelFor(spec.algName())
		if !ok {
			return nil, fmt.Errorf("conformance %s: no fluid mapping for %q", spec.name, spec.algName())
		}
		pr, err := runPacket(cfg, spec)
		if err != nil {
			return nil, err
		}
		row := ConfRow{Algorithm: spec.name, PacketShare: pr.share, Tol: spec.tol}
		if model.Psi != nil {
			row.FluidShare, row.Converged = solveFluid(model, spec, pr)
		} else {
			shares := model.Oracle(confPaths(pr, spec.cross))
			row.FluidShare = [2]float64{shares[0], shares[1]}
			row.Converged = true
		}
		for r := range row.FluidShare {
			if d := math.Abs(row.FluidShare[r] - row.PacketShare[r]); d > row.Delta {
				row.Delta = d
			}
		}
		row.OK = row.Converged && row.Delta <= row.Tol
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the conformance table — the artifact CI diffs against the
// committed golden, so it is deliberately plain and byte-stable.
func (c *Conformance) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s %7s %6s  %s\n",
		"algorithm", "fluid0", "fluid1", "pkt0", "pkt1", "delta", "tol", "status")
	for _, r := range c.Rows {
		status := "ok"
		if !r.Converged {
			status = "no-converge"
		} else if !r.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%-10s %8.3f %8.3f %8.3f %8.3f %7.3f %6.2f  %s\n",
			r.Algorithm, r.FluidShare[0], r.FluidShare[1],
			r.PacketShare[0], r.PacketShare[1], r.Delta, r.Tol, status)
	}
	return sb.String()
}

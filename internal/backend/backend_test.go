package backend

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

func TestScenarioValidate(t *testing.T) {
	good := Scenario{Topology: "twopath-sym", Algorithm: "lia"}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaulted valid scenario rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"unknown topology", func(s *Scenario) { s.Topology = "mesh" }, "unknown topology"},
		{"unknown algorithm", func(s *Scenario) { s.Algorithm = "warp" }, "warp"},
		{"negative load", func(s *Scenario) { s.Load = -0.1 }, "load"},
		{"saturating load", func(s *Scenario) { s.Load = 1 }, "load"},
		{"warmup past horizon", func(s *Scenario) { s.Horizon = sim.Second; s.Warmup = 2 * sim.Second }, "warmup"},
		{"unknown energy model", func(s *Scenario) { s.EnergyModel = "solar" }, "energy"},
		{"op length mismatch", func(s *Scenario) { s.Op = &OperatingPoint{RTT: []float64{0.04}, Frac: []float64{1}} }, "operating point"},
		{"zero horizon", func(s *Scenario) { s.Horizon, s.Warmup = 0, 0 }, "horizon"},
		{"negative horizon", func(s *Scenario) { s.Horizon, s.Warmup = -sim.Second, 0 }, "horizon"},
		{"cross without an entry", func(s *Scenario) { s.Topology, s.Cross = "fattree", true }, "no cross-traffic entry"},
		{"load without an entry", func(s *Scenario) { s.Topology, s.Load = "dumbbell", 0.1 }, "no cross-traffic entry"},
		{"population off a fabric", func(s *Scenario) { s.Population = &flows.Config{TotalFlows: 10} }, "multi-host"},
		{"bad fault grammar", func(s *Scenario) { s.Faults = "path1:sideways@2s" }, "directive"},
		{"faults without a connection", func(s *Scenario) { s.Algorithm, s.EnergyModel, s.Faults = "", "none", "path1:down@2s" }, "measured connection"},
		{"meter without a connection", func(s *Scenario) { s.Algorithm = "" }, "measured connection"},
		{"negative subflows", func(s *Scenario) { s.Subflows = -1 }, "negative"},
		{"no subflow count on a fabric", func(s *Scenario) { s.Topology = "vl2" }, "subflow count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := good
			tc.mut(&sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestTopologiesRegistry: the default sweep grid is the four bare N-path
// topologies it was calibrated on, each a registered one-pair topology the
// fluid engine can read routes off; the registry itself is sorted.
func TestTopologiesRegistry(t *testing.T) {
	if names := topo.Names(); !sort.StringsAreSorted(names) {
		t.Errorf("topo.Names() not sorted: %v", names)
	}
	want := []string{"hetdelay", "threepath", "twopath-asym", "twopath-sym"}
	if got := DefaultSweepSpec().Topologies; !reflect.DeepEqual(got, want) {
		t.Fatalf("default sweep topologies = %v, want %v", got, want)
	}
	for _, name := range want {
		if e, ok := topo.Lookup(name); !ok || e.Routes < 2 {
			t.Errorf("topo.Lookup(%s) = %+v, %v: want a registered multi-route pair", name, e, ok)
		}
	}
	if _, ok := topo.Lookup("mesh"); ok {
		t.Error("topo.Lookup(mesh) resolved")
	}
}

// TestFluidEngineRefusesByName: everything a Scenario can say that an
// equilibrium over disjoint paths cannot answer is refused naming it, the way
// dctcp is — never silently ignored. The same scenarios wire on the packet
// side.
func TestFluidEngineRefusesByName(t *testing.T) {
	base := Scenario{Topology: "twopath-asym", Algorithm: "lia", Horizon: 2 * sim.Second}
	cases := []struct {
		want string
		mut  func(*Scenario)
	}{
		{"fault schedule", func(s *Scenario) { s.Faults = "path1:down@1s" }},
		{"finite transfer", func(s *Scenario) { s.TransferBytes = 1 << 20 }},
		{"flow population", func(s *Scenario) {
			s.Topology, s.Net.Size, s.Subflows, s.Population = "fattree", 4, 2, &flows.Config{Algorithm: "lia", TotalFlows: 10}
		}},
		{"Pareto cross traffic", func(s *Scenario) { s.Cross = true }},
		{"receive window", func(s *Scenario) { s.Rwnd = 45 }},
		{"subflow fan-out", func(s *Scenario) { s.Subflows = 4 }},
		{"priced path", func(s *Scenario) { s.Price = &Price{Path: 1, Rho: 1} }},
		{"transport options", func(s *Scenario) { s.Transport.DisableHystart = true }},
		{"disjoint paths", func(s *Scenario) { s.Topology, s.Net.Size, s.Subflows = "fattree", 4, 2 }},
	}
	for _, tc := range cases {
		sc := base
		tc.mut(&sc)
		if _, err := (FluidEngine{}).Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fluid %s: err = %v, want a refusal naming it", tc.want, err)
		}
		if _, err := Wire(sim.NewEngine(1), sc.WithDefaults(), nil); err != nil {
			t.Errorf("packet side cannot wire the %s scenario: %v", tc.want, err)
		}
	}
	sc := base
	sc.Subflows = 2 // one per route: not a fan-out
	if _, err := (FluidEngine{}).Run(context.Background(), sc); err != nil {
		t.Errorf("fluid refused subflows == routes: %v", err)
	}
}

// TestFluidEngineDCTCPUnmapped: dctcp is registered (the packet engine runs
// it) but has no Eq. 3 mapping, so the fluid engine must refuse it with a
// pointer at the packet engine rather than solve the wrong model.
func TestFluidEngineDCTCPUnmapped(t *testing.T) {
	sc := Scenario{Topology: "twopath-sym", Algorithm: "dctcp"}
	_, err := FluidEngine{}.Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "packet engine") {
		t.Errorf("fluid dctcp: err = %v, want no-mapping error", err)
	}
}

func TestEngineNames(t *testing.T) {
	if got := (PacketEngine{}).Name(); got != "packet" {
		t.Errorf("PacketEngine.Name() = %q", got)
	}
	if got := (FluidEngine{}).Name(); got != "fluid" {
		t.Errorf("FluidEngine.Name() = %q", got)
	}
}

// TestFluidEngineThreePath: the solver generalizes past TwoPath — on the
// 24/12/6 Mb/s grid the shares must order by capacity and sum to one.
func TestFluidEngineThreePath(t *testing.T) {
	sc := Scenario{Topology: "threepath", Algorithm: "lia"}
	res, err := FluidEngine{}.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(res.Shares) != 3 {
		t.Fatalf("got %d shares, want 3", len(res.Shares))
	}
	var sum float64
	for _, s := range res.Shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if !(res.Shares[0] > res.Shares[1] && res.Shares[1] > res.Shares[2]) {
		t.Errorf("shares %v not ordered by capacity", res.Shares)
	}
	if res.Events != 0 {
		t.Errorf("fluid result reports %d events, want 0", res.Events)
	}
}

// TestFluidEngineOracleUnderLoad: the delay-based family maps to the
// free-capacity oracle; cross load on the last path must shrink its share
// exactly to the remaining free capacity's fraction.
func TestFluidEngineOracleUnderLoad(t *testing.T) {
	sc := Scenario{Topology: "twopath-asym", Algorithm: "wvegas", Load: 0.5}
	res, err := FluidEngine{}.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}
	// Free capacities: 16 Mb/s and 8·(1−0.5) = 4 Mb/s → shares 0.8 / 0.2.
	if math.Abs(res.Shares[0]-0.8) > 1e-9 || math.Abs(res.Shares[1]-0.2) > 1e-9 {
		t.Errorf("oracle shares = %v, want [0.8 0.2]", res.Shares)
	}
	if math.Abs(res.AggregateBps-20e6) > 1e-3*20e6 {
		t.Errorf("aggregate = %v, want ~20 Mb/s of free capacity", res.AggregateBps)
	}
}

func TestFluidEngineEnergyModels(t *testing.T) {
	base := Scenario{Topology: "twopath-sym", Algorithm: "lia"}
	withModel := base
	withModel.EnergyModel = "i7"
	res, err := FluidEngine{}.Run(context.Background(), withModel)
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}
	if res.Joules <= 0 {
		t.Errorf("i7 model integrated %v J over the window, want > 0", res.Joules)
	}
	none := base
	none.EnergyModel = "none"
	nres, err := FluidEngine{}.Run(context.Background(), none)
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}
	if nres.Joules != 0 {
		t.Errorf("EnergyModel none reported %v J", nres.Joules)
	}
}

// TestEveryEnergyModelOnBothEngines walks energy.Names on the handset
// topology: Validate accepts each name, both engines meter it with a finite
// non-negative reading (zero only for "none"), and the handset's reading is
// Eq. 2's sum over interfaces — SoC, WiFi and LTE terms adding up to the
// total, the LTE radio's base power among them. Off the handset's radios
// both engines refuse "nexus5" rather than leave traffic unmetered.
func TestEveryEnergyModelOnBothEngines(t *testing.T) {
	for _, name := range energy.Names() {
		sc := Scenario{Topology: "hetwireless", Algorithm: "lia", EnergyModel: name, Horizon: 6 * sim.Second}
		if err := sc.WithDefaults().Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
			continue
		}
		for _, eng := range []Engine{FluidEngine{}, PacketEngine{}} {
			res, err := eng.Run(context.Background(), sc)
			if err != nil {
				t.Errorf("%s on %s: %v", name, eng.Name(), err)
				continue
			}
			if j := res.Joules; math.IsNaN(j) || math.IsInf(j, 0) || j < 0 || (j == 0) != (name == "none") {
				t.Errorf("%s on %s: %v J", name, eng.Name(), j)
			}
			if name != "nexus5" || eng.Name() != "fluid" {
				continue
			}
			nexus := energy.NewNexus()
			smp := energy.PathsSample([]energy.PathSample{
				{Name: "wifi", ThroughputBps: res.RateBps[0], RTTSeconds: res.Op.RTT[0]},
				{Name: "lte", ThroughputBps: res.RateBps[1], RTTSeconds: res.Op.RTT[1]},
			})
			soc, wifi, lte := nexus.Terms(smp)
			if sum := soc + wifi + lte; sum != nexus.Power(smp) || res.Joules != sum*4 {
				t.Errorf("nexus5 terms %v + %v + %v W over the 4 s window, engine read %v J", soc, wifi, lte, res.Joules)
			}
			if lte < 1.288 || wifi < 0.30 {
				t.Errorf("nexus5 radio terms wifi %v W, lte %v W: both carry traffic and must be above their active base", wifi, lte)
			}
		}
	}
	sc := Scenario{Topology: "twopath-sym", Algorithm: "lia", EnergyModel: "nexus5", Horizon: 6 * sim.Second}
	for _, eng := range []Engine{FluidEngine{}, PacketEngine{}} {
		if _, err := eng.Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), `none for path "path0"`) {
			t.Errorf("nexus5 off the handset on %s: %v, want a refusal naming the path", eng.Name(), err)
		}
	}
}

func TestEnginesHonourCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := Scenario{Topology: "twopath-sym", Algorithm: "lia"}
	if _, err := (FluidEngine{}).Run(ctx, sc); err == nil {
		t.Error("fluid engine ignored cancelled context")
	}
	if _, err := (PacketEngine{}).Run(ctx, sc); err == nil {
		t.Error("packet engine ignored cancelled context")
	}
}

// TestPacketEngineShortRun exercises the packet engine end to end on a
// cheap horizon: measured shares, a measured operating point, and a
// positive energy reading.
func TestPacketEngineShortRun(t *testing.T) {
	sc := Scenario{
		Topology: "twopath-asym", Algorithm: "lia",
		Horizon: 6 * sim.Second, Warmup: 2 * sim.Second,
	}
	res, err := PacketEngine{}.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("packet: %v", err)
	}
	if res.Fidelity != "packet" || !res.Converged {
		t.Errorf("fidelity %q converged %v", res.Fidelity, res.Converged)
	}
	var sum float64
	for _, s := range res.Shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if res.AggregateBps <= 0 || res.Events == 0 || res.Joules <= 0 {
		t.Errorf("agg %v events %d joules %v; all must be positive", res.AggregateBps, res.Events, res.Joules)
	}
	for r := range res.Op.RTT {
		if res.Op.RTT[r] <= 0 || res.Op.Frac[r] <= 0 || res.Op.Frac[r] > 1 {
			t.Errorf("operating point path %d: rtt %v frac %v", r, res.Op.RTT[r], res.Op.Frac[r])
		}
	}
}

package backend

import (
	"fmt"
	"strings"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/faults"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// World is a wired Scenario: everything Wire built, ready to observe and
// start — Run does both. Fields a scenario does not ask for are nil.
type World struct {
	Eng   *sim.Engine
	Net   topo.Net       // the built topology; nil over ready paths
	Paths []*netem.Path  // the measured connection's subflow paths
	Conn  *mptcp.Conn    // the measured connection
	Meter *energy.Meter  // its host power meter, running unless sc.Warmup > 0
	Pop   *flows.Manager // the flow population
}

// Wire validates sc and builds it on eng — the one place a run is
// assembled; outside tests only Run calls it. The topology is sc.Topology
// from the registry or, for a substrate the registry does not name, the
// ready paths (sc.Subflows fans over either). Construction order is fixed, because same-instant event
// order and RNG draws follow it and the committed tables were generated
// under it: topology → link price → cross traffic → connection → meter →
// faults → population. obs (nil is fine) supplies the population's
// invariant checker and receives its per-flow lines; registering the rest
// of the world with it is World.Observe.
func Wire(eng *sim.Engine, sc Scenario, obs *obsv.Observer, ready ...*netem.Path) (*World, error) {
	if err := sc.validate(len(ready)); err != nil {
		return nil, err
	}
	w := &World{Eng: eng}
	entry, _ := topo.Lookup(sc.Topology) // zero over ready paths
	if len(ready) > 0 {
		w.Paths = topo.Fan(ready, sc.Subflows)
	} else {
		net, err := topo.Build(eng, sc.Topology, sc.Net)
		if err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
		w.Net = net
		if entry.Fabric && net.Hosts() < 2 {
			return nil, fmt.Errorf("backend: %s of size %d yields %d hosts", sc.Topology, sc.Net.Size, net.Hosts())
		}
		if sc.Algorithm != "" {
			w.Paths = net.Paths(0, net.Hosts()-1, sc.Subflows)
		}
	}
	if p := sc.Price; p != nil {
		if p.Path >= len(w.Paths) {
			return nil, fmt.Errorf("backend: priced path %d of %d", p.Path, len(w.Paths))
		}
		for _, l := range w.Paths[p.Path].Forward {
			l.SetPrice(p.Rho, p.Gamma, p.QTarget)
		}
	}
	if pair, ok := w.Net.(*topo.Pair); ok {
		for i := 0; sc.Cross && i < entry.Routes; i++ {
			workload.NewParetoOnOff(eng, []*netem.Link{pair.CrossEntry(i)}, pair.BurstRate(i)).Start()
		}
		if sc.Load > 0 {
			// Cross traffic enters at the shared hop, keeping the sender's
			// access link clean — the conformance convention.
			l := pair.CrossEntry(entry.Routes - 1)
			workload.NewCBR(eng, []*netem.Link{l}, int64(sc.Load*float64(l.Rate()))).Start()
		}
	}
	if sc.Algorithm != "" {
		conn, err := mptcp.New(eng, mptcp.Config{
			Transport: sc.Transport, Algorithm: sc.Algorithm,
			RwndSegments: sc.Rwnd, TransferBytes: sc.TransferBytes,
		}, 1, w.Paths...)
		if err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
		w.Conn = conn
		model, err := powerModel(sc.EnergyModel, w.Paths)
		if err != nil {
			return nil, err
		}
		if model != nil {
			w.Meter = energy.NewMeter(eng, model, energy.ConnProbe(conn), 0)
			if sc.Warmup == 0 {
				w.Meter.Start()
			}
		}
		if err := faults.Install(eng, sc.Faults, w.Paths, sc.Horizon); err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
	}
	if sc.Population != nil {
		pop := *sc.Population
		if pop.Arrivals == nil {
			pop.Arrivals = flows.Poisson{Rate: 40 * float64(w.Net.Hosts())}
		}
		pop.Check = obs.Inv()
		if emit := pop.Emit; obs != nil {
			pop.Emit = func(r flows.Report) {
				obs.Flow(obsv.Flow{
					T: r.At.Seconds(), ID: r.ID, Class: r.Class.String(),
					Bytes: r.Bytes, FCTSeconds: r.FCT.Seconds(),
					GoodputBps: r.GoodputBps, Joules: r.Joules,
					Subflows: r.Subflows, Shed: r.Shed,
				})
				if emit != nil {
					emit(r)
				}
			}
		}
		mgr, err := flows.New(eng, w.Net, pop)
		if err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
		w.Pop = mgr
	}
	return w, nil
}

// powerModel resolves a validated scenario's host power model against the
// paths it will meter. The handset prices power per radio, keyed by path
// name, so a path it has no radio for would carry traffic unmetered: both
// engines refuse that by name.
func powerModel(name string, paths []*netem.Path) (energy.Model, error) {
	model, _ := energy.Lookup(name)
	if nexus, ok := model.(*energy.NexusModel); ok {
		for _, p := range paths {
			if !nexus.HasRadio(p.Name) {
				return nil, fmt.Errorf("backend: energy model %q meters the handset's wifi and lte radios and has none for path %q", name, p.Name)
			}
		}
	}
	return model, nil
}

// Observe registers the world's standard observables with obs: the measured
// connection as "", its meter as "host", the population's live, offered and
// shed counts.
func (w *World) Observe(obs *obsv.Observer) {
	if w.Conn != nil {
		obs.Conn("", w.Conn)
	}
	if w.Meter != nil {
		obs.Meter("host", w.Meter)
	}
	if mgr := w.Pop; mgr != nil {
		obs.Sample("flows.live", func() float64 { return float64(mgr.Live()) })
		obs.Sample("flows.offered", func() float64 { return float64(mgr.Stats().Offered) })
		obs.Sample("flows.shed", func() float64 { return float64(mgr.Stats().ShedCapacity) })
	}
}

// sample is the world as a tripped watchdog reports it: each measured
// subflow's state and window, the population's live count.
func (w *World) sample() string {
	var b strings.Builder
	if w.Conn != nil {
		for _, s := range w.Conn.Subflows() {
			fmt.Fprintf(&b, "sf%d=%s cwnd=%.1f ", s.ID(), s.State(), s.Cwnd())
		}
	}
	if w.Pop != nil {
		fmt.Fprintf(&b, "live=%d", w.Pop.Live())
	}
	return strings.TrimSpace(b.String())
}

// Stages are what a front-end adds to Run: the parts of a run a Scenario
// does not name. Every field may be nil.
type Stages struct {
	// Ready builds the paths of a substrate the registry does not name.
	Ready func(eng *sim.Engine) []*netem.Path
	// Attach runs on the wired world before anything starts. It adds what
	// only this front-end has (an algorithm instance, the path selector, its
	// own users, a failpoint, a stop condition) and registers the observed
	// series; nil means World.Observe.
	Attach func(w *World, obs *obsv.Observer)
	// Drive runs the engine (nil: to sc.Horizon).
	Drive func(w *World)
	// Summary files the run's scalar outcomes on the settled world.
	Summary func(w *World, obs *obsv.Observer)
}

// Run is the one sequence every run goes through: engine (seeded with
// sc.Seed) → watchdog (nil is fine) → observer per oc, whose deferred Abort
// saves a parseable record when the run panics or fails → Ready → Wire →
// Attach → observer start → connection and population start (a population
// alone stops the engine when it drains) → Drive → settle → Summary →
// observer close. Settling flushes the meter, cuts the flows still alive and
// fails the run if the population's ledger (Offered == Completed +
// ShedCapacity + Cut) does not balance.
func Run(sc Scenario, oc obsv.Config, wd *supervise.Watchdog, st Stages) (*World, error) {
	eng := sim.NewEngine(sc.Seed)
	wd.Attach(eng)
	obs, err := obsv.NewObserver(eng, oc)
	if err != nil {
		return nil, err
	}
	defer obs.Abort()
	var ready []*netem.Path
	if st.Ready != nil {
		ready = st.Ready(eng)
	}
	w, err := Wire(eng, sc, obs, ready...)
	if err != nil {
		return nil, err
	}
	if w.Conn != nil || w.Pop != nil {
		wd.SetSample(w.sample)
	}
	if st.Attach != nil {
		st.Attach(w, obs)
	} else {
		w.Observe(obs)
	}
	obs.Start()
	if w.Conn != nil {
		w.Conn.Start()
	}
	if w.Pop != nil {
		if w.Conn == nil {
			w.Pop.OnDrained = eng.Stop
		}
		w.Pop.Start()
	}
	if st.Drive != nil {
		st.Drive(w)
	} else {
		eng.Run(sc.Horizon)
	}
	if w.Meter != nil {
		w.Meter.Flush()
	}
	if w.Pop != nil {
		w.Pop.CutLive()
		if n := w.Pop.Stats(); n.Offered != n.Completed+n.ShedCapacity+n.Cut {
			return w, fmt.Errorf("backend: population ledger broken: %d offered != %d completed + %d shed + %d cut",
				n.Offered, n.Completed, n.ShedCapacity, n.Cut)
		}
	}
	if st.Summary != nil {
		st.Summary(w, obs)
	}
	return w, obs.Close()
}

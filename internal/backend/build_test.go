package backend

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/flows"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// TestWireBuildsWhatTheScenarioNames: each part of a World exists exactly
// when the Scenario asks for it — a measured connection with its meter, a
// population alone, a bare substrate, ready paths with no topology.
func TestWireBuildsWhatTheScenarioNames(t *testing.T) {
	base := Scenario{Topology: "twopath", Algorithm: "lia", EnergyModel: "i7", Seed: 1, Horizon: sim.Second}
	w, err := Wire(sim.NewEngine(1), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Net == nil || w.Conn == nil || w.Meter == nil || w.Pop != nil || len(w.Paths) != 2 {
		t.Errorf("measured connection: %+v", w)
	}

	sc := base
	sc.Topology, sc.Net.Size, sc.Algorithm, sc.EnergyModel = "fattree", 4, "", "none"
	if w, err = Wire(sim.NewEngine(1), sc, nil); err != nil || w.Net.Hosts() != 16 || w.Conn != nil || w.Paths != nil {
		t.Errorf("bare substrate: %+v, %v", w, err)
	}

	var lines int
	sc.Population = &flows.Config{Algorithm: "lia", TotalFlows: 50, Emit: func(flows.Report) { lines++ }}
	sc.Horizon = 30 * sim.Second
	if w, err = Run(sc, obsv.Config{Check: obsv.CheckCollect}, nil, Stages{}); err != nil || w.Pop == nil || w.Conn != nil {
		t.Fatalf("population alone: %+v, %v", w, err)
	}
	// 40 flows/s per host on 16 hosts offers all 50 within a second, and a
	// population alone stops the engine when it drains.
	if st := w.Pop.Stats(); st.Offered != 50 || lines != 50 || w.Eng.Now() >= sc.Horizon {
		t.Errorf("offered %d, reported %d flows, stopped at %v", st.Offered, lines, w.Eng.Now())
	}

	eng := sim.NewEngine(1)
	link := func() []*netem.Link { return []*netem.Link{netem.NewLink(eng, netem.LinkConfig{Rate: netem.Mbps})} }
	ready := []*netem.Path{{Name: "a", Forward: link(), Reverse: link()}, {Name: "b", Forward: link(), Reverse: link()}}
	sc = Scenario{Algorithm: "lia", Subflows: 5, EnergyModel: "none", Seed: 1, Horizon: sim.Second}
	if w, err = Wire(eng, sc, nil, ready...); err != nil || w.Net != nil || len(w.Conn.Subflows()) != 5 {
		t.Errorf("ready paths: %+v, %v", w, err)
	}
	sc.Topology = "twopath"
	if _, err = Wire(eng, sc, nil, ready...); err == nil || !strings.Contains(err.Error(), "ready paths") {
		t.Errorf("ready paths plus a topology name: %v", err)
	}
}

// TestRunCutsALivePopulation: a population still moving data at the
// horizon is settled by cutting its live flows, and the ledger balances
// with them counted — Offered == Completed + ShedCapacity + Cut, Cut > 0.
func TestRunCutsALivePopulation(t *testing.T) {
	sc := Scenario{Topology: "fattree", Net: topo.Params{Size: 4}, EnergyModel: "none", Seed: 1,
		Horizon: 300 * sim.Millisecond, Population: &flows.Config{Algorithm: "lia", TotalFlows: 100}}
	w, err := Run(sc, obsv.Config{}, nil, Stages{})
	if err != nil {
		t.Fatal(err)
	}
	n := w.Pop.Stats()
	if n.Cut == 0 {
		t.Fatalf("no flow was live at the %v horizon: %+v", sc.Horizon.Duration(), n)
	}
	if n.Offered != n.Completed+n.ShedCapacity+n.Cut {
		t.Errorf("ledger %+v: want Offered == Completed + ShedCapacity + Cut", n)
	}
}

// TestWireRefusesAtBuildTime: what only the built world can show — a fault
// target or priced path the connection does not have, a fabric too small to
// have two hosts — is an error from Wire, not a panic or a no-op.
func TestWireRefusesAtBuildTime(t *testing.T) {
	base := Scenario{Topology: "twopath", Algorithm: "lia", EnergyModel: "none", Seed: 1, Horizon: sim.Second}
	for want, mut := range map[string]func(*Scenario){
		"no path":     func(s *Scenario) { s.Faults = "path7:down@100ms" },
		"horizon":     func(s *Scenario) { s.Faults = "path1:down@2s" },
		"priced path": func(s *Scenario) { s.Price = &Price{Path: 2, Rho: 1} },
		"hosts":       func(s *Scenario) { s.Topology, s.Net.Size, s.Subflows = "ec2", 1, 2 },
	} {
		sc := base
		mut(&sc)
		if _, err := Wire(sim.NewEngine(1), sc, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Wire = %v, want an error containing %q", err, want)
		}
	}
}

// TestRunStageOrder: Run fires the stages in the documented order — Ready
// before Wire, Attach on the wired world before anything starts, Drive once
// the observer and the connection have started, Summary on a settled world
// (the meter has integrated the residual the horizon cut off) — and without
// a Drive it runs the engine to sc.Horizon.
func TestRunStageOrder(t *testing.T) {
	const horizon = sim.Second + 4*sim.Millisecond // not a multiple of the meter's 10 ms tick
	flushed := func(w *World) {
		if got := w.Meter.Joules() / w.Meter.MeanPower(); math.Abs(got-horizon.Seconds()) > 1e-9 {
			t.Errorf("Summary sees a meter covering %vs of the %vs horizon", got, horizon.Seconds())
		}
	}
	var order []string
	var pending int
	sc := Scenario{Algorithm: "lia", EnergyModel: "i7", Seed: 1, Horizon: horizon}
	_, err := Run(sc, obsv.Config{Check: obsv.CheckCollect}, nil, Stages{
		Ready: func(eng *sim.Engine) []*netem.Path {
			order = append(order, "ready")
			link := func() []*netem.Link {
				return []*netem.Link{netem.NewLink(eng, netem.LinkConfig{Rate: 10 * netem.Mbps})}
			}
			return []*netem.Path{{Name: "a", Forward: link(), Reverse: link()}}
		},
		Attach: func(w *World, obs *obsv.Observer) {
			order = append(order, "attach")
			if w.Conn == nil || w.Meter == nil || w.Eng.Now() != 0 {
				t.Errorf("Attach got an unwired world: %+v", w)
			}
			w.Observe(obs)
			pending = w.Eng.Pending()
		},
		Drive: func(w *World) {
			order = append(order, "drive")
			// The invariant tick and the connection's first send.
			if w.Eng.Pending() < pending+2 {
				t.Errorf("Drive before the observer and connection started: %d events pending, %d at Attach", w.Eng.Pending(), pending)
			}
			w.Eng.Run(horizon)
		},
		Summary: func(w *World, obs *obsv.Observer) {
			order = append(order, "summary")
			flushed(w)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ready", "attach", "drive", "summary"}; !reflect.DeepEqual(order, want) {
		t.Errorf("stages fired %v, want %v", order, want)
	}

	sc = Scenario{Topology: "twopath", Algorithm: "lia", EnergyModel: "i7", Seed: 1, Horizon: horizon}
	var stopped sim.Time
	if _, err = Run(sc, obsv.Config{}, nil, Stages{Summary: func(w *World, _ *obsv.Observer) {
		stopped = w.Eng.Now()
		flushed(w)
	}}); err != nil || stopped != horizon {
		t.Errorf("a run without Drive stopped at %v, want the horizon %v (%v)", stopped, horizon, err)
	}
}

// TestRunSamplesTheWorldForTheWatchdog: a run an event budget trips names,
// in RunError.LastObsv, each measured subflow's state and window, or a
// population's live count.
func TestRunSamplesTheWorldForTheWatchdog(t *testing.T) {
	for _, tc := range []struct {
		sc   Scenario
		want []string
	}{
		{Scenario{Topology: "twopath", Algorithm: "lia", EnergyModel: "none", Seed: 1, Horizon: 10 * sim.Second},
			[]string{"sf0=active cwnd=", "sf1=active cwnd="}},
		{Scenario{Topology: "fattree", Net: topo.Params{Size: 4}, EnergyModel: "none", Seed: 1, Horizon: 10 * sim.Second,
			Population: &flows.Config{Algorithm: "lia", TotalFlows: 500}}, []string{"live="}},
	} {
		sc := tc.sc
		rep := supervise.New(supervise.Budget{Events: 20000}).Run(context.Background(), supervise.RunID{Scenario: sc.Topology},
			func(wd *supervise.Watchdog) error {
				_, err := Run(sc, obsv.Config{}, wd, Stages{})
				return err
			})
		if rep.Err == nil || rep.Err.Kind != supervise.KindBudget {
			t.Fatalf("%s: %+v, want an event-budget trip", sc.Topology, rep)
		}
		for _, w := range tc.want {
			if !strings.Contains(rep.Err.LastObsv, w) {
				t.Errorf("%s: LastObsv %q lacks %q", sc.Topology, rep.Err.LastObsv, w)
			}
		}
	}
}

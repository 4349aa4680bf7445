package backend

import (
	"strings"
	"testing"

	"mptcpsim/internal/flows"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
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
	eng := sim.NewEngine(1)
	obs, _ := obsv.NewObserver(eng, obsv.Config{Check: obsv.CheckCollect})
	if w, err = Wire(eng, sc, obs); err != nil || w.Pop == nil || w.Conn != nil {
		t.Fatalf("population alone: %+v, %v", w, err)
	}
	w.Observe(obs)
	obs.Start()
	w.Start()
	eng.Run(30 * sim.Second)
	w.Settle()
	if err := obs.Close(); err != nil {
		t.Error(err)
	}
	// 40 flows/s per host on 16 hosts offers all 50 within a second, and a
	// population alone stops the engine when it drains.
	if st := w.Pop.Stats(); st.Offered != 50 || lines != 50 || eng.Now() >= 30*sim.Second {
		t.Errorf("offered %d, reported %d flows, stopped at %v", st.Offered, lines, eng.Now())
	}

	eng = sim.NewEngine(1)
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

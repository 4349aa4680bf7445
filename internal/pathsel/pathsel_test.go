package pathsel

import (
	"testing"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// hetConn builds the WiFi+LTE connection with per-radio models.
func hetConn(t *testing.T, eng *sim.Engine, alg string) (*mptcp.Conn, []energy.Model) {
	t.Helper()
	het, err := topo.Build(eng, "hetwireless", topo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := mptcp.New(eng, mptcp.Config{Algorithm: alg}, 1, het.Paths(0, 1, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	return conn, []energy.Model{energy.NewWiFi(), energy.NewLTE()}
}

func TestSelectorSuspendsExpensiveLTE(t *testing.T) {
	// On an uncongested WiFi+LTE pair, WiFi is far cheaper per bit (LTE's
	// 1.3 W base dwarfs WiFi's ~0.4 W at these rates): the eMPTCP-style
	// selector must converge to WiFi-only, like the schedulers the paper
	// reviews in §II.
	eng := sim.NewEngine(1)
	conn, models := hetConn(t, eng, "lia")
	sel := New(eng, conn, models)
	conn.Start()
	sel.Start()
	eng.Run(30 * sim.Second)

	if conn.SubflowEnabled(1) {
		t.Error("LTE subflow still enabled; selector should have suspended it")
	}
	if !conn.SubflowEnabled(0) {
		t.Error("WiFi subflow suspended; the cheapest path must stay on")
	}
	if sel.Decisions() < 25 {
		t.Errorf("only %d decision rounds in 30 s at 1 Hz", sel.Decisions())
	}
	if sel.Suspensions() == 0 {
		t.Error("no suspension decisions recorded")
	}
}

func TestSelectorTradesThroughputForEnergy(t *testing.T) {
	// The paper's §II point: the path-selection baseline saves energy but
	// loses MPTCP's aggregation. Compare plain LIA against LIA+selector.
	run := func(withSelector bool) (tputBps, joules float64) {
		eng := sim.NewEngine(2)
		conn, models := hetConn(t, eng, "lia")
		// Per-radio metering: the handset model prices each subflow's
		// goodput on its own interface.
		meter := energy.NewMeter(eng, energy.NewNexus(), energy.ConnProbe(conn), 0)
		meter.Start()
		if withSelector {
			New(eng, conn, models).Start()
		}
		conn.Start()
		eng.Run(60 * sim.Second)
		return conn.MeanThroughputBps(), meter.Joules()
	}
	tputFull, joulesFull := run(false)
	tputSel, joulesSel := run(true)

	if tputSel >= tputFull {
		t.Errorf("selector throughput %.1f Mb/s not below full MPTCP's %.1f (QoS cost missing)",
			tputSel/1e6, tputFull/1e6)
	}
	perGbitFull := joulesFull / (tputFull * 60 / 1e9)
	perGbitSel := joulesSel / (tputSel * 60 / 1e9)
	if perGbitSel >= perGbitFull {
		t.Errorf("selector energy %.1f J/Gb not below full MPTCP's %.1f (energy saving missing)",
			perGbitSel, perGbitFull)
	}
}

func TestSelectorStops(t *testing.T) {
	eng := sim.NewEngine(1)
	conn, models := hetConn(t, eng, "lia")
	sel := New(eng, conn, models)
	conn.Start()
	sel.Start()
	eng.Run(5 * sim.Second)
	queued := eng.Pending()
	sel.Stop()
	if got := eng.Pending(); got != queued-1 {
		t.Errorf("Pending = %d after Stop, want %d: the next evaluation must leave the queue", got, queued-1)
	}
	n := sel.Decisions()
	eng.Run(15 * sim.Second)
	if sel.Decisions() != n {
		t.Error("selector kept deciding after Stop")
	}
}

func TestSelectorKeepsCheapestWhenAllExpensive(t *testing.T) {
	// Two LTE-like interfaces: both expensive, but one must stay enabled.
	eng := sim.NewEngine(1)
	conn, _ := hetConn(t, eng, "lia")
	models := []energy.Model{energy.NewLTE(), energy.NewLTE()}
	sel := New(eng, conn, models)
	conn.Start()
	sel.Start()
	eng.Run(20 * sim.Second)
	if !conn.SubflowEnabled(0) && !conn.SubflowEnabled(1) {
		t.Fatal("selector suspended every path")
	}
}

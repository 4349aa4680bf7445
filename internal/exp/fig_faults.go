package exp

import (
	"fmt"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// This file adds the robustness suite the paper's ns-2 handover/degradation
// discussion (§V-D) implies but no figure tabulates: how each algorithm
// rides out a path outage, a flapping path, and a WiFi→cellular handover.
// Every algorithm runs the identical deterministic fault schedule, so the
// comparison isolates the congestion controller (failure detection and
// re-injection are shared transport machinery).

// faultsAlgorithms and faultsScenarios are the suite's axes. Both are
// declared splittable on the Experiment (every run's seed is cfg.Seed, and
// its record name carries its own algorithm and scenario — nothing depends
// on grid position), so a campaign can schedule each (scenario, algorithm)
// cell as its own unit.
var (
	faultsAlgorithms = []string{"ewtcp", "coupled", "lia", "olia", "balia", "cubic", "vegas", "wvegas", "dts", "dts-lia"}
	faultsScenarios  = []string{"outage", "flap", "handover"}
)

// runFaultScenario executes one algorithm under one fault scenario and
// returns completion time (s), goodput (Mb/s), J/Gb and re-injected
// segments. Fault instants are fractions of the horizon so every Scale
// still exercises failure, survival and recovery before the transfer would
// finish.
func runFaultScenario(cfg Config, wd *supervise.Watchdog, res *Result, seed int64, alg, scenario string, horizon sim.Time) [4]float64 {
	r := world{res: res, scenario: scenario,
		sc: backend.Scenario{Algorithm: alg, Seed: seed, Horizon: horizon},
		Stages: backend.Stages{
			// Host series ahead of the connection's: the order the committed
			// faults records list them in.
			Attach: func(w *backend.World, obs *obsv.Observer) {
				obs.Meter("host", w.Meter)
				obs.Conn("", w.Conn)
			},
		},
	}
	sc := &r.sc
	// Size the transfer so the fault hits mid-transfer AND the faulted
	// path's return (outage heals, flap cycles) still matters before the
	// transfer ends — otherwise outage and flap are indistinguishable and
	// both reduce to "lose one path". Two thirds of the horizon at
	// single-path speed achieves that while leaving slack to finish. The
	// handover scenario uses a lower estimate: its surviving LTE path has
	// a 200 ms RTT, where coupled window growth delivers far less than
	// line rate over these horizons.
	dur := func(t sim.Time) string { return t.Duration().String() }
	switch scenario {
	case "outage", "flap":
		sc.Topology, sc.Net = "twopath", topo.Params{Rates: [2]int64{20 * netem.Mbps, 20 * netem.Mbps}, Queue: 50}
		sc.TransferBytes = int64(20e6 / 8 * horizon.Seconds() * 2 / 3)
		sc.EnergyModel = "i7"
		sc.Faults = "path1:down@" + dur(horizon/6) + ",up@" + dur(horizon/2)
		if scenario == "flap" {
			sc.Faults = "path1:flap@" + dur(horizon/6) + "+" + dur(horizon/6) + "/" + dur(horizon/18)
		}
	case "handover":
		// No 64 KB receive-window cap here (unlike Fig. 17): the LTE path's
		// 100 ms RTT would pin it at ~5 Mb/s and the completion times would
		// measure the buffer, not the failover.
		sc.Topology = "hetwireless"
		sc.TransferBytes = int64(6e6 / 8 * horizon.Seconds() / 3)
		sc.EnergyModel = "nexus5"
		// The user walks away from the AP: WiFi degrades to 1 Mb/s and
		// 100 ms per hop, drops entirely, then comes back and recovers as
		// they return — the paper's mobility story as a fault schedule.
		sc.Faults = "wifi:ramp@" + dur(horizon/6) + "+" + dur(horizon/6) + "=1Mbps/100ms" +
			",down@" + dur(horizon/3) + ",up@" + dur(2*horizon/3) +
			",ramp@" + dur(2*horizon/3) + "+" + dur(horizon/12) + "=10Mbps/20ms"
	default:
		panic("exp: unknown fault scenario " + scenario)
	}

	var out [4]float64
	r.Summary = func(w *backend.World, obs *obsv.Observer) {
		conn := w.Conn
		completed := horizon
		if conn.Done() {
			completed = conn.CompletedAt()
		}
		var goodputMbps float64
		if completed > 0 {
			goodputMbps = float64(conn.AckedBytes()) * 8 / completed.Seconds() / 1e6
		}
		out = [4]float64{completed.Seconds(), goodputMbps,
			energy.PerGigabit(w.Meter.Joules(), conn.AckedBytes()), float64(conn.ReinjectedSegs())}
		obs.Summary("completed_s", out[0])
		obs.Summary("goodput_mbps", out[1])
		obs.Summary("j_per_gbit", out[2])
		obs.Summary("reinjected_segs", out[3])
	}
	cfg.run(wd, r)
	return out
}

// FigFaults runs the robustness suite: every algorithm against the same
// outage, flap and handover schedules.
func FigFaults(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "faults",
		Title:   "Robustness: path outage, flapping and WiFi handover",
		Columns: []string{"scenario", "alg", "completed_s", "goodput_mbps", "j_per_gbit", "reinj_segs"},
		Notes: []string{
			"fixed transfer under identical deterministic fault schedules; lower completed_s and j_per_gbit are better",
			"outage/flap: 2x20 Mb/s paths, path1 faulted; handover: WiFi degrades, dies and returns while LTE persists",
		},
	}
	horizon := cfg.scaledTime(60*sim.Second, 15*sim.Second)
	// One run per cell: the suite draws nothing at random (no cross traffic,
	// no random loss), so a repetition on another seed would replay it.
	algs := filterAxis(faultsAlgorithms, cfg.Algorithm)
	scenarios := filterAxis(faultsScenarios, cfg.Scenario)
	for c, m := range means(runPar(cfg, res, len(scenarios)*len(algs), 1, func(c int, seed int64, wd *supervise.Watchdog) [4]float64 {
		return runFaultScenario(cfg, wd, res, seed, algs[c%len(algs)], scenarios[c/len(algs)], horizon)
	})) {
		res.AddRow(scenarios[c/len(algs)], algs[c%len(algs)], fmtF(m[0], 2), fmtF(m[1], 2), fmtF(m[2], 1), fmt.Sprintf("%.0f", m[3]))
	}
	return res
}

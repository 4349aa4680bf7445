package exp

import (
	"fmt"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/faults"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
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
// declared splittable on the Experiment (every run's seed is cfg.Seed plus
// its repetition index, and its record name carries its own algorithm and
// scenario — nothing depends on grid position), so a campaign can schedule
// each (scenario, algorithm) cell as its own unit.
var (
	faultsAlgorithms = []string{"ewtcp", "coupled", "lia", "olia", "balia", "cubic", "vegas", "wvegas", "dts", "dts-lia"}
	faultsScenarios  = []string{"outage", "flap", "handover"}
)

// faultsOutcome is one run's scoreboard.
type faultsOutcome struct {
	completedS  float64
	goodputMbps float64
	jPerGbit    float64
	reinjected  float64
	events      uint64
}

// runFaultScenario executes one algorithm under one fault scenario. Fault
// instants are fractions of the horizon so every Scale still exercises
// failure, survival and recovery before the transfer would finish.
func runFaultScenario(cfg Config, wd *supervise.Watchdog, seed int64, alg, scenario string, horizon sim.Time) faultsOutcome {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	obs := cfg.observe(eng, "faults", scenario, alg, seed)
	defer obs.Abort()
	var conn *mptcp.Conn
	var joules func() float64
	flush := func() {}

	// Size the transfer so the fault hits mid-transfer AND the faulted
	// path's return (outage heals, flap cycles) still matters before the
	// transfer ends — otherwise outage and flap are indistinguishable and
	// both reduce to "lose one path". Two thirds of the horizon at
	// single-path speed achieves that while leaving slack to finish. The
	// handover scenario uses a lower estimate: its surviving LTE path has
	// a 200 ms RTT, where coupled window growth delivers far less than
	// line rate over these horizons.
	bytes := int64(20e6 / 8 * horizon.Seconds() * 2 / 3)
	if scenario == "handover" {
		bytes = int64(6e6 / 8 * horizon.Seconds() / 3)
	}

	switch scenario {
	case "outage", "flap":
		tp := topo.NewTwoPath(eng, topo.TwoPathConfig{Rate: 20 * netem.Mbps, QueueLimit: 50})
		conn = mptcp.MustNew(eng, mptcp.Config{Algorithm: alg, TransferBytes: bytes}, 1, tp.Paths()...)
		m := meterFor(eng, energy.NewI7(), conn)
		joules = m.Joules
		flush = m.Flush
		obs.Meter("host", m)
		if scenario == "outage" {
			faults.Apply(eng, tp.Paths()[1], faults.Outage{Down: horizon / 6, Up: horizon / 2})
		} else {
			faults.Apply(eng, tp.Paths()[1], faults.Flap{
				Start: horizon / 6, Period: horizon / 6, DownFor: horizon / 18,
			})
		}
	case "handover":
		// No 64 KB receive-window cap here (unlike Fig. 17): the LTE path's
		// 100 ms RTT would pin it at ~5 Mb/s and the completion times would
		// measure the buffer, not the failover.
		het := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
		conn = mptcp.MustNew(eng, mptcp.Config{Algorithm: alg, TransferBytes: bytes}, 1, het.Paths()...)
		m := newHandsetMeter(eng, conn, true)
		joules = func() float64 { return m.joules }
		obs.Sample("host.joules", joules)
		// The user walks away from the AP: WiFi degrades to 1 Mb/s and
		// 100 ms per hop, drops entirely, then comes back and recovers as
		// they return — the paper's mobility story as a fault schedule.
		faults.Apply(eng, het.Paths()[0],
			faults.Ramp{Start: horizon / 6, Duration: horizon / 6, RateTo: netem.Mbps, DelayTo: 100 * sim.Millisecond},
			faults.Outage{Down: horizon / 3, Up: 2 * horizon / 3},
			faults.Ramp{Start: 2 * horizon / 3, Duration: horizon / 12, RateTo: 10 * netem.Mbps, DelayTo: 20 * sim.Millisecond},
		)
	default:
		panic("exp: unknown fault scenario " + scenario)
	}

	obs.Conn("", conn)
	obs.Start()
	conn.Start()
	eng.Run(horizon)
	flush()

	completed := horizon
	if conn.Done() {
		completed = conn.CompletedAt()
	}
	out := faultsOutcome{
		completedS: completed.Seconds(),
		reinjected: float64(conn.ReinjectedSegs()),
		events:     eng.Processed(),
	}
	if completed > 0 {
		out.goodputMbps = float64(conn.AckedBytes()) * 8 / completed.Seconds() / 1e6
	}
	out.jPerGbit = energy.PerGigabit(joules(), conn.AckedBytes())
	obs.Summary("completed_s", out.completedS)
	obs.Summary("goodput_mbps", out.goodputMbps)
	obs.Summary("j_per_gbit", out.jPerGbit)
	obs.Summary("reinjected_segs", out.reinjected)
	obs.Close()
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
	reps := cfg.reps(3)
	algs := filterAxis(faultsAlgorithms, cfg.Algorithm)
	scenarios := filterAxis(faultsScenarios, cfg.Scenario)
	outs := runPar(cfg, res, len(scenarios)*len(algs)*reps, func(i int, wd *supervise.Watchdog) faultsOutcome {
		scenario := scenarios[i/(len(algs)*reps)]
		alg := algs[i/reps%len(algs)]
		r := i % reps
		return runFaultScenario(cfg, wd, cfg.Seed+int64(r), alg, scenario, horizon)
	})
	for s, scenario := range scenarios {
		for a, alg := range algs {
			var acc faultsOutcome
			for r := 0; r < reps; r++ {
				o := outs[(s*len(algs)+a)*reps+r]
				acc.completedS += o.completedS
				acc.goodputMbps += o.goodputMbps
				acc.jPerGbit += o.jPerGbit
				acc.reinjected += o.reinjected
				res.Events += o.events
			}
			n := float64(reps)
			res.AddRow(scenario, alg,
				fmtF(acc.completedS/n, 2),
				fmtF(acc.goodputMbps/n, 2),
				fmtF(acc.jPerGbit/n, 1),
				fmt.Sprintf("%.0f", acc.reinjected/n))
		}
	}
	return res
}

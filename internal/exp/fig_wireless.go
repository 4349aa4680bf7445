package exp

import (
	"mptcpsim/internal/backend"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// This file reproduces §VI-C-2: the heterogeneous wireless experiment
// (Fig. 17). A mobile sender uses a WiFi path (10 Mb/s, 40 ms) and a 4G
// path (20 Mb/s, 100 ms) with 50-packet DropTail queues and a 64 KB
// receive buffer, under bursty cross traffic on both links, exactly the
// paper's ns-2 setup; handset energy comes from the Nexus radio models
// (energy model "nexus5").

// handsetWorld is the Fig. 17 world: the WiFi+4G handset under bursty cross
// traffic on both links (scaled to each link's capacity, so both paths flip
// between Good and Bad states) with a 64 KB receive buffer, metered by the
// Nexus radio models.
func handsetWorld(seed int64, alg string, horizon sim.Time) backend.Scenario {
	const rwnd64KB = 45 // 64 KiB in full segments of the default MSS
	return backend.Scenario{
		Topology: "hetwireless", Algorithm: alg, Rwnd: rwnd64KB, Cross: true,
		EnergyModel: "nexus5", Seed: seed, Horizon: horizon,
	}
}

// fig17Run executes one 200 s (scaled) run and returns goodput (b/s) and
// handset energy (J). With priceLTE the compensative
// parameter prices the energy-expensive 4G hop: the LTE radio's high base
// power maps to a standing per-packet price plus a queue-pressure term.
func fig17Run(cfg Config, wd *supervise.Watchdog, res *Result, seed int64, alg string, horizon sim.Time, priceLTE bool) [4]float64 {
	r := world{res: res, scenario: "hetwireless", sc: handsetWorld(seed, alg, horizon),
		Stages: backend.Stages{Summary: shiftSummary}}
	if priceLTE {
		r.scenario = "hetwireless-priced"
		r.sc.Price = &backend.Price{Path: 1, Rho: 2.0, Gamma: 0.1, QTarget: 12}
	}
	return shiftOutcome(cfg.run(wd, r))
}

// Fig17 compares LIA, DTS and the extended DTS on handset energy and
// throughput.
func Fig17(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig17",
		Title:   "Heterogeneous wireless (WiFi 10 Mb/s/40 ms + 4G 20 Mb/s/100 ms)",
		Columns: []string{"alg", "throughput_mbps", "j_per_gbit", "energy_saving_vs_lia_pct", "tput_vs_lia_pct"},
		Notes: []string{
			"paper expectation: DTS saves up to ~30% energy vs LIA, with an energy-throughput tradeoff",
		},
	}
	horizon := cfg.scaledTime(200*sim.Second, 40*sim.Second)
	reps := cfg.reps(5)

	perGbit := make(map[string]float64)
	tputs := make(map[string]float64)
	algs := []string{"lia", "dts", "dts-lia", "dtsep"} // LIA first: the baseline
	for a, m := range means(runPar(cfg, res, len(algs), reps, func(a int, seed int64, wd *supervise.Watchdog) [4]float64 {
		return fig17Run(cfg, wd, res, seed, algs[a], horizon, algs[a] == "dtsep")
	})) {
		alg, tput, joules := algs[a], m[0], m[1]
		gbits := tput * horizon.Seconds() / 1e9
		perGbit[alg] = joules / gbits
		tputs[alg] = tput
		res.AddRow(alg,
			fmtF(tput/1e6, 2),
			fmtF(perGbit[alg], 1),
			relPct(perGbit, "lia", perGbit[alg], -100),
			relPct(tputs, "lia", tput, 100))
	}
	return res
}

package exp

import (
	"fmt"
	"slices"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/pathsel"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
)

// This file holds the ablation studies DESIGN.md calls out: the DTS
// constant c (the Pareto-optimality/fairness knob of §V-B), the extended
// algorithm's price weight κ_s (the energy/throughput tradeoff of Eq. 9),
// and the transport's slow-start exit guard.

// shiftRunWith runs the Fig. 5b scenario with an explicit algorithm
// instance (for parameterized variants outside the registry). Algorithm
// instances carry per-run state, so callers running on the pool must
// construct a fresh instance per run. res and scenario identify the run
// record when Config.OutDir is set.
func shiftRunWith(cfg Config, wd *supervise.Watchdog, res *Result, scenario string, seed int64, alg core.Algorithm, horizon sim.Time) [4]float64 {
	return shiftOutcome(cfg.run(wd, world{
		res: res, scenario: scenario, alg: alg.Name(),
		sc: burstTwoPath(seed, "lia", horizon),
		Stages: backend.Stages{
			Attach: func(w *backend.World, obs *obsv.Observer) {
				w.Conn.SetAlgorithm(alg)
				w.Observe(obs)
			},
			Summary: shiftSummary,
		},
	}))
}

// AblationC sweeps the DTS constant c. c < 1 under-uses the fair share;
// c > 1 violates the TCP-friendliness condition (ψ_h > 1 at equilibrium);
// the paper picks c = 1.
func AblationC(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "abl-c",
		Title:   "Ablation: DTS constant c (psi = c*eps)",
		Columns: []string{"c", "throughput_mbps", "j_per_gbit", "cond1_at_eq"},
		Notes: []string{
			"§V-B: c = 1 satisfies both the Pareto-optimality and the fairness condition; the sweep shows what each side of it costs",
		},
	}
	horizon := cfg.scaledTime(300*sim.Second, 60*sim.Second)
	reps := cfg.reps(3)
	cs := []float64{0.5, 1.0, 1.5, 2.0}
	for ci, m := range means(runPar(cfg, res, len(cs), reps, func(ci int, seed int64, wd *supervise.Watchdog) [4]float64 {
		// A fresh DTS instance per run: algorithm state is per-connection.
		return shiftRunWith(cfg, wd, res, fmt.Sprintf("burst-c%g", cs[ci]), seed, &core.DTS{C: cs[ci]}, horizon)
	})) {
		c, tput, joules := cs[ci], m[0], m[1]
		// Condition 1 evaluated at the design-point equilibrium ratio 1/2.
		eq := []core.View{{Cwnd: 20, SRTT: 0.04, LastRTT: 0.04, BaseRTT: 0.02}}
		cond := core.SatisfiesCondition1(&core.DTS{C: c}, eq, 1e-9)
		res.AddRow(fmtF(c, 1), fmtF(tput/1e6, 1),
			fmtF(joules/(tput*horizon.Seconds()/1e9), 1),
			fmt.Sprintf("%v", cond))
	}
	return res
}

// AblationKappa sweeps the Eq. 9 price weight κ_s on a two-path wired
// scenario whose second path is priced (the energy-expensive route): the
// compensative term must progressively vacate it, trading throughput for
// a lower share on the costly path. Loss-based congestion avoidance is
// active here, which is where the φ term operates (a purely
// receive-window-limited flow never consults it).
func AblationKappa(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "abl-kappa",
		Title:   "Ablation: price weight kappa of the extended DTS (Eq. 9)",
		Columns: []string{"kappa", "throughput_mbps", "priced_path_share"},
		Notes: []string{
			"larger kappa vacates the priced (energy-expensive) path more aggressively: smaller share there, lower throughput",
		},
	}
	horizon := cfg.scaledTime(120*sim.Second, 30*sim.Second)
	reps := cfg.reps(3)
	kappas := []float64{0, 1e-4, 5e-4, 2e-3}
	for ki, m := range means(runPar(cfg, res, len(kappas), reps, func(ki int, seed int64, wd *supervise.Watchdog) [4]float64 {
		kappa := kappas[ki]
		return pricedShiftRun(cfg, wd, res, fmt.Sprintf("priced-kappa%g", kappa), seed, &core.DTS{C: 1, LIA: true, Priced: true, Kappa: kappa}, horizon)
	})) {
		res.AddRow(fmt.Sprintf("%.0e", kappas[ki]), fmtF(m[0]/1e6, 1), fmtF(m[1], 3))
	}
	return res
}

// pricedShiftRun runs two clean 50 Mb/s paths with the second one charged
// an energy price, returning goodput and the priced path's traffic share.
func pricedShiftRun(cfg Config, wd *supervise.Watchdog, res *Result, scenario string, seed int64, alg core.Algorithm, horizon sim.Time) [4]float64 {
	sc := backend.Scenario{
		Topology: "twopath", Net: topo.Params{Rates: [2]int64{50 * netem.Mbps, 50 * netem.Mbps}},
		Algorithm: "lia", Price: &backend.Price{Path: 1, Rho: 1.0, Gamma: 0.05, QTarget: 25},
		EnergyModel: "none", Seed: seed, Horizon: horizon,
	}
	var share float64
	w := cfg.run(wd, world{
		res: res, scenario: scenario, alg: alg.Name(), sc: sc,
		Stages: backend.Stages{
			Attach: func(w *backend.World, obs *obsv.Observer) {
				w.Conn.SetAlgorithm(alg)
				w.Observe(obs)
			},
			Summary: func(w *backend.World, obs *obsv.Observer) {
				a0 := float64(w.Conn.Subflows()[0].Acked())
				a1 := float64(w.Conn.Subflows()[1].Acked())
				if a0+a1 > 0 {
					share = a1 / (a0 + a1)
				}
				obs.Summary("throughput_mbps", w.Conn.MeanThroughputBps()/1e6)
				obs.Summary("priced_path_share", share)
			},
		},
	})
	return [4]float64{w.Conn.MeanThroughputBps(), share}
}

// AblationHystart compares the transport with and without the delay-based
// slow-start exit on a deep-buffered path.
func AblationHystart(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "abl-hystart",
		Title:   "Ablation: delay-based slow-start exit",
		Columns: []string{"hystart", "completion_s", "loss_events", "rtx"},
		Notes: []string{
			"without the guard, slow start overshoots deep buffers into mass loss; recovery machinery absorbs it but pays in retransmissions",
		},
	}
	transfer := cfg.scaledBytes(256<<20, 8<<20)
	variants := []bool{false, true}
	res.Rows = slices.Concat(runPar(cfg, res, len(variants), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		disable := variants[i]
		var st tcp.Stats
		w := cfg.run(wd, world{
			res: res, scenario: fmt.Sprintf("hystart-%v", !disable),
			sc: backend.Scenario{
				Algorithm: "reno", TransferBytes: transfer, Transport: tcp.Config{DisableHystart: disable},
				EnergyModel: "none", Seed: seed, Horizon: 600 * sim.Second,
			},
			Stages: backend.Stages{
				// One deep-buffered link: no registered topology is a single hop.
				Ready: func(eng *sim.Engine) []*netem.Path {
					return []*netem.Path{linkPath(eng, "p", 100*netem.Mbps, 20*sim.Millisecond, 1500, 0)}
				},
				Attach: func(w *backend.World, obs *obsv.Observer) {
					w.Observe(obs)
					w.Conn.OnComplete = func(sim.Time) { w.Eng.Stop() }
				},
				Summary: func(w *backend.World, obs *obsv.Observer) {
					st = w.Conn.Subflows()[0].Stats()
					obs.Summary("completion_s", w.Conn.CompletedAt().Seconds())
					obs.Summary("loss_events", float64(st.LossEvents))
					obs.Summary("rtx", float64(st.PktsRtx))
				},
			},
		})
		return []string{
			fmt.Sprintf("%v", !disable),
			fmtF(w.Conn.CompletedAt().Seconds(), 2),
			fmt.Sprintf("%d", st.LossEvents),
			fmt.Sprintf("%d", st.PktsRtx)}
	})...)
	return res
}

// AblationPathsel compares the paper's two design families head to head
// on the wireless scenario (§II): congestion-control designs (LIA, the
// Modified-LIA DTS) against an eMPTCP-style energy-aware path selector.
// The selector should post the lowest handset power but also the lowest
// throughput — the QoS loss the paper cites as motivation for the
// congestion-control approach.
func AblationPathsel(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "abl-pathsel",
		Title:   "Ablation: congestion control vs energy-aware path selection",
		Columns: []string{"approach", "throughput_mbps", "mean_power_w", "j_per_gbit"},
		Notes: []string{
			"§II: path-selection schedulers (Pluntke et al., eMPTCP) save energy by dropping to one interface, losing MPTCP's aggregation",
		},
	}
	horizon := cfg.scaledTime(200*sim.Second, 40*sim.Second)
	reps := cfg.reps(3)
	approaches := []string{"lia", "dts-lia", "lia+selector"}
	for ai, m := range means(runPar(cfg, res, len(approaches), reps, func(ai int, seed int64, wd *supervise.Watchdog) [4]float64 {
		return pathselRun(cfg, wd, res, seed, approaches[ai], horizon)
	})) {
		tput, joules := m[0], m[1]
		res.AddRow(approaches[ai], fmtF(tput/1e6, 2),
			fmtF(joules/horizon.Seconds(), 2),
			fmtF(joules/(tput*horizon.Seconds()/1e9), 1))
	}
	return res
}

// pathselRun runs the Fig. 17 wireless scenario with the given approach.
func pathselRun(cfg Config, wd *supervise.Watchdog, res *Result, seed int64, approach string, horizon sim.Time) [4]float64 {
	r := world{res: res, scenario: "hetwireless", alg: approach,
		sc:     handsetWorld(seed, approach, horizon),
		Stages: backend.Stages{Summary: shiftSummary}}
	if approach == "lia+selector" {
		r.sc.Algorithm = "lia"
		r.Attach = func(w *backend.World, obs *obsv.Observer) {
			pathsel.New(w.Eng, w.Conn, []energy.Model{energy.NewWiFi(), energy.NewLTE()}).Start()
			w.Observe(obs)
		}
	}
	return shiftOutcome(cfg.run(wd, r))
}

package exp

import (
	"fmt"
	"slices"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/faults"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// This file adds the population-scale churn experiment the ROADMAP's
// "millions of users" axis calls for: an open-loop arrival process births
// and kills tens of thousands of short MPTCP flows on a FatTree while a
// deterministic fault schedule runs underneath, and the table reports the
// per-flow outcome percentiles (FCT, goodput, attributable joules) that
// the paper's steady-state energy claims translate to under churn.

// churnAlgorithms and churnScenarios are the experiment's axes. Both are
// splittable: every run's identity (seed, topology, record name) derives
// from the axis values alone, so campaign units shard and resume exactly
// like the other figures.
var (
	churnAlgorithms = []string{"lia", "olia", "dts-lia"}
	churnScenarios  = []string{"open", "overload"}
)

// runChurn executes one algorithm under one arrival regime on a FatTree
// sized by the scale knob, with a switch-link fault schedule running
// concurrently with the arrival storm, and renders its row.
func runChurn(cfg Config, wd *supervise.Watchdog, res *Result, seed int64, alg, scenario string) []string {
	params := dcParams("fattree", cfg.Scale)
	k := params.Size
	if k == 0 {
		k = 8 // the registry's default: the paper's 128-host tree
	}
	hosts := k * k * k / 4
	total := cfg.scaled(50_000, 800)

	// The open regime offers what the tree can drain; overload modulates
	// between a baseline and a storm an order of magnitude past it, with an
	// admission cap sized to hold >= 10k concurrent flows at full scale
	// (128 hosts x 94). The storm rate per admission slot (400/94 ~ 4.3/s)
	// exceeds the drain rate a congested tree manages at any scale, so the
	// live count hits the cap and shedding — not memory growth — absorbs
	// the excess.
	var arrivals flows.Arrivals
	var capFlows int
	openRate := float64(hosts) * 40
	switch scenario {
	case "open":
		arrivals = flows.Poisson{Rate: openRate}
	case "overload":
		arrivals = &flows.MMPP2{
			RateLow: float64(hosts) * 20, RateHigh: float64(hosts) * 400,
			MeanLow: 500 * sim.Millisecond, MeanHigh: 500 * sim.Millisecond,
		}
		capFlows = hosts * 94
	default:
		panic("exp: unknown churn scenario " + scenario)
	}
	arrDur := sim.Time(float64(total) / openRate * float64(sim.Second))

	// The table's percentiles are exact and over completed flows only, so
	// the run keeps one sample per completion; the manager keeps none.
	var fcts, gputs, joules []float64
	p := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return stats.Percentile(xs, q)
	}
	var st flows.Stats
	cfg.run(wd, world{
		res: res, scenario: scenario, alg: alg,
		sc: backend.Scenario{
			Topology: "fattree", Net: params, EnergyModel: "none", Seed: seed,
			// Generous backstop: the run normally stops when the population
			// drains; whatever is still alive at the horizon is cut and
			// accounted.
			Horizon: 4*arrDur + 60*sim.Second,
			Population: &flows.Config{
				Algorithm:     alg,
				TotalFlows:    total,
				MaxConcurrent: capFlows,
				Arrivals:      arrivals,
				Emit: func(r flows.Report) {
					if r.Shed == "" {
						fcts = append(fcts, r.FCT.Seconds())
						gputs = append(gputs, r.GoodputBps)
						joules = append(joules, r.Joules)
					}
				},
			},
		},
		Stages: backend.Stages{
			Attach: func(w *backend.World, obs *obsv.Observer) {
				w.Observe(obs)
				// Fault schedule concurrent with the churn: one switch link dies
				// mid-storm and heals, another flaps throughout — failover must
				// keep working while flows are being born and torn down. Instants
				// are fractions of the arrival phase so every scale exercises
				// them while arrivals are still coming.
				links := w.Net.(*topo.FatTree).SwitchLinks()
				faults.ApplyLinks(w.Eng, links[:1], faults.Outage{Down: arrDur / 4, Up: arrDur / 2})
				faults.ApplyLinks(w.Eng, links[1:2], faults.Flap{
					Start: arrDur / 6, Period: arrDur / 3, DownFor: arrDur / 12,
				})
			},
			Summary: func(w *backend.World, obs *obsv.Observer) {
				st = w.Pop.Stats()
				obs.Summary("flows_offered", float64(st.Offered))
				obs.Summary("flows_completed", float64(st.Completed))
				obs.Summary("flows_shed", float64(st.ShedCapacity))
				obs.Summary("flows_cut", float64(st.Cut))
				obs.Summary("peak_live", float64(st.PeakLive))
				obs.Summary("fct_p99_s", p(fcts, 99))
				obs.Summary("j_per_flow_p99", p(joules, 99))
			},
		},
	})

	return []string{
		scenario, alg,
		fmt.Sprintf("%d", st.Offered),
		fmt.Sprintf("%d", st.Completed),
		fmt.Sprintf("%d", st.ShedCapacity),
		fmt.Sprintf("%d", st.Cut),
		fmt.Sprintf("%d", st.PeakLive),
		fmtF(p(fcts, 50), 3), fmtF(p(fcts, 95), 3), fmtF(p(fcts, 99), 3),
		fmtF(p(gputs, 50)/1e6, 2),
		fmtF(p(joules, 50), 3), fmtF(p(joules, 95), 3), fmtF(p(joules, 99), 3),
	}
}

// FigChurn runs the churn suite: each algorithm under the open and
// overloaded arrival regimes.
func FigChurn(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:    "churn",
		Title: "Population churn: open-loop arrivals on FatTree, per-flow FCT/energy",
		Columns: []string{"scenario", "alg", "offered", "completed", "shed", "cut", "peak",
			"fct_p50_s", "fct_p95_s", "fct_p99_s", "gput_p50_mbps",
			"j_p50", "j_p95", "j_p99"},
		Notes: []string{
			"open-loop Poisson/MMPP arrivals, heavy-tailed sizes (web/bulk/stream mix); percentiles over completed flows",
			"offered == completed + shed + cut always (zero silent loss); overload sheds deterministically at the admission cap",
			"switch-link outage+flap run concurrently with the arrival storm; joules are marginal energy over the idle floor",
		},
	}
	algs := filterAxis(churnAlgorithms, cfg.Algorithm)
	scenarios := filterAxis(churnScenarios, cfg.Scenario)
	res.Rows = slices.Concat(runPar(cfg, res, len(scenarios)*len(algs), 1, func(c int, seed int64, wd *supervise.Watchdog) []string {
		return runChurn(cfg, wd, res, seed, algs[c%len(algs)], scenarios[c/len(algs)])
	})...)
	return res
}

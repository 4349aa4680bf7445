package exp

import (
	"fmt"
	"slices"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// This file reproduces §VI-A and §VI-B: the Fig. 5a multi-user sharing
// experiment (Fig. 6) and the Fig. 5b traffic-shifting experiments
// (Figs. 7-9).

// fig6Algorithms are the four TCP-friendly algorithms the paper compares.
// The axis is declared splittable on the Experiment: every run's engine
// seeds from cfg.Seed alone, so one algorithm's rows are byte-identical
// whether the figure runs the full grid or a Config.Algorithm slice.
var fig6Algorithms = []string{"lia", "olia", "balia", "ecmtcp"}

// Fig6 runs N parallel MPTCP users (16 MB each) against 2N TCP users over
// the two-bottleneck scenario and reports the box-whisker summary of
// per-user energy for each algorithm.
func Fig6(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig6",
		Title:   "Per-user energy, N MPTCP + 2N TCP users on two bottlenecks",
		Columns: []string{"N", "alg", "min_j", "q1_j", "median_j", "q3_j", "max_j", "outliers"},
		Notes: []string{
			"paper expectation: OLIA (the Pareto-optimal one) consumes the least average energy, more clearly as N grows",
		},
	}
	transfer := cfg.scaledBytes(16<<20, 2<<20)
	type spec struct {
		n   int
		alg string
	}
	var specs []spec
	for _, n := range fig6Users(cfg) {
		for _, alg := range filterAxis(fig6Algorithms, cfg.Algorithm) {
			specs = append(specs, spec{n: n, alg: alg})
		}
	}
	res.Rows = slices.Concat(runPar(cfg, res, len(specs), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		sp := specs[i]
		b := stats.NewBox(fig6UserEnergies(cfg, wd, res, seed, sp.n, sp.alg, transfer))
		return []string{
			fmt.Sprintf("%d", sp.n), sp.alg,
			fmtF(b.Min, 1), fmtF(b.Q1, 1), fmtF(b.Median, 1),
			fmtF(b.Q3, 1), fmtF(b.Max, 1), fmt.Sprintf("%d", len(b.Outliers))}
	})...)
	return res
}

// fig6Users returns the figure's N axis, the paper's 10, 20, 50 and 100
// scaled, each value once: scaling floors small N at 4, and a repeated N
// would rerun the same seeded experiment and write its record path twice.
func fig6Users(cfg Config) []int {
	var ns []int
	for _, fullN := range []int{10, 20, 50, 100} {
		if n := cfg.scaled(fullN, 4); !slices.Contains(ns, n) {
			ns = append(ns, n)
		}
	}
	return ns
}

// fig6UserEnergies runs one Fig. 5a experiment and returns the per-user
// energy consumption of the N MPTCP transfers. When records are exported,
// user 0 is the observed connection (one record per run; the other users
// are statistically equivalent).
func fig6UserEnergies(cfg Config, wd *supervise.Watchdog, res *Result, seed int64, n int, alg string, transfer int64) []float64 {
	var meters []*energy.Meter
	out := make([]float64, n)
	cfg.run(wd, world{
		res: res, scenario: fmt.Sprintf("dumbbell-%dusers", n), alg: alg,
		sc: backend.Scenario{
			Topology: "dumbbell", Net: topo.Params{Size: 3 * n},
			EnergyModel: "none", Seed: seed, Horizon: 600 * sim.Second,
		},
		Stages: backend.Stages{
			Attach: func(w *backend.World, obs *obsv.Observer) {
				eng, d := w.Eng, w.Net.(*topo.Dumbbell)
				_, meters = hostUsers(w, obs, "user0.", n, mptcp.Config{Algorithm: alg, TransferBytes: transfer},
					energy.NewI7(), d.MPTCPPaths, nil)
				// 2N long-lived TCP users, N per bottleneck.
				for u := 0; u < n; u++ {
					t0 := mptcp.MustNew(eng, mptcp.Config{Algorithm: "reno"}, uint64(1000+u), d.TCPPath(n+u, 0))
					t1 := mptcp.MustNew(eng, mptcp.Config{Algorithm: "reno"}, uint64(2000+u), d.TCPPath(2*n+u, 1))
					t0.Start()
					t1.Start()
				}
			},
			Summary: func(_ *backend.World, obs *obsv.Observer) {
				for u, m := range meters {
					m.Flush() // integrate the residual for transfers cut off by the horizon
					out[u] = m.Joules()
				}
				obs.Summary("user0_energy_j", out[0])
			},
		},
	})
	return out
}

// fig7Algorithms are the existing algorithms compared for traffic shifting
// (plus the uncoupled cubic/vegas baselines, which shift nothing by design
// and anchor the comparison).
var fig7Algorithms = []string{"lia", "olia", "balia", "ecmtcp", "cubic", "vegas", "wvegas"}

// burstTwoPath is the Fig. 5b world: an MPTCP connection over two 50 Mb/s
// paths with Pareto bursty cross traffic on each. The 45 Mb/s bursts
// genuinely flip a 50 Mb/s path to the Bad state; on a faster path they
// would barely register.
func burstTwoPath(seed int64, alg string, horizon sim.Time) backend.Scenario {
	return backend.Scenario{
		Topology: "twopath", Net: topo.Params{Rates: [2]int64{50 * netem.Mbps, 50 * netem.Mbps}},
		Algorithm: alg, Cross: true, EnergyModel: "i7", Seed: seed, Horizon: horizon,
	}
}

// shiftSummary and shiftOutcome are the filed and returned outcomes of a
// Fig. 5b run, and of a Fig. 17 handset run: mean goodput (b/s) and sender
// energy (J).
func shiftSummary(w *backend.World, obs *obsv.Observer) {
	obs.Summary("throughput_mbps", w.Conn.MeanThroughputBps()/1e6)
	obs.Summary("energy_j", w.Meter.Joules())
}

func shiftOutcome(w *backend.World) [4]float64 {
	return [4]float64{w.Conn.MeanThroughputBps(), w.Meter.Joules()}
}

// shiftRun runs one Fig. 5b experiment for the figure res.
func shiftRun(cfg Config, wd *supervise.Watchdog, res *Result, seed int64, alg string, horizon sim.Time) [4]float64 {
	return shiftOutcome(cfg.run(wd, world{
		res: res, scenario: "burst-twopath",
		sc:     burstTwoPath(seed, alg, horizon),
		Stages: backend.Stages{Summary: shiftSummary},
	}))
}

// Fig7 compares the existing algorithms' shifting behaviour under bursty
// cross traffic.
func Fig7(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig7",
		Title:   "Existing algorithms under Pareto bursty cross traffic (Fig. 5b)",
		Columns: []string{"alg", "throughput_mbps", "energy_j", "j_per_gbit"},
		Notes: []string{
			"paper expectation: LIA outperforms the other existing algorithms in traffic shifting",
		},
	}
	horizon := cfg.scaledTime(300*sim.Second, 60*sim.Second)
	reps := cfg.reps(5)
	for a, m := range means(runPar(cfg, res, len(fig7Algorithms), reps, func(a int, seed int64, wd *supervise.Watchdog) [4]float64 {
		return shiftRun(cfg, wd, res, seed, fig7Algorithms[a], horizon)
	})) {
		tput, joules := m[0], m[1]
		gbits := tput * horizon.Seconds() / 1e9
		res.AddRow(fig7Algorithms[a], fmtF(tput/1e6, 1), fmtF(joules, 1), fmtF(joules/gbits, 1))
	}
	return res
}

// Fig8 traces throughput and cumulative energy of LIA and DTS over one
// Fig. 5b run.
func Fig8(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig8",
		Title:   "Trace of LIA vs modified LIA (DTS) under bursty cross traffic",
		Columns: []string{"alg", "t_s", "goodput_mbps", "energy_j"},
		Notes: []string{
			"paper expectation: the modified LIA tracks LIA's throughput while accumulating less energy",
		},
	}
	horizon := cfg.scaledTime(300*sim.Second, 60*sim.Second)
	const samples = 10
	algs := []string{"lia", "dts-lia"}
	// The per-sample stepping is inherently sequential within one run, so
	// the pool fans out over algorithms only.
	traces := runPar(cfg, res, len(algs), 1, func(ai int, seed int64, wd *supervise.Watchdog) [][]string {
		alg := algs[ai]
		var rows [][]string
		cfg.run(wd, world{
			res: res, scenario: "burst-twopath",
			sc: burstTwoPath(seed, alg, horizon),
			Stages: backend.Stages{
				Drive: func(w *backend.World) {
					var lastBytes uint64
					step := horizon / samples
					for i := 1; i <= samples; i++ {
						w.Eng.Run(step * sim.Time(i))
						delta := w.Conn.AckedBytes() - lastBytes
						lastBytes = w.Conn.AckedBytes()
						rows = append(rows, []string{alg, fmtF((step * sim.Time(i)).Seconds(), 0),
							fmtF(float64(delta)*8/step.Seconds()/1e6, 1),
							fmtF(w.Meter.Joules(), 1)})
					}
				},
				Summary: func(w *backend.World, obs *obsv.Observer) { obs.Summary("energy_j", w.Meter.Joules()) },
			},
		})
		return rows
	})
	for _, rows := range slices.Concat(traces...) {
		res.Rows = append(res.Rows, rows...)
	}
	return res
}

// Fig9 quantifies DTS's energy saving over LIA across repeated Fig. 5b
// runs.
func Fig9(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig9",
		Title:   "DTS vs LIA in the Fig. 5b scenario",
		Columns: []string{"alg", "throughput_mbps", "j_per_gbit", "saving_vs_lia_pct"},
		Notes: []string{
			"paper expectation: DTS reduces energy by up to ~20% versus LIA without degrading throughput",
			"dts is the literal psi=c*eps of Eq. 5; dts-lia is the kernel 'Modified LIA' of Fig. 8 (LIA increase scaled by eps); dts-taylor is Algorithm 1's integer port",
		},
	}
	horizon := cfg.scaledTime(300*sim.Second, 60*sim.Second)
	reps := cfg.reps(10)

	perGbit := make(map[string]float64)
	algs := []string{"lia", "dts", "dts-lia", "dts-taylor"} // LIA first: the baseline
	for a, m := range means(runPar(cfg, res, len(algs), reps, func(a int, seed int64, wd *supervise.Watchdog) [4]float64 {
		return shiftRun(cfg, wd, res, seed, algs[a], horizon)
	})) {
		alg, tput, joules := algs[a], m[0], m[1]
		perGbit[alg] = joules / (tput * horizon.Seconds() / 1e9)
		res.AddRow(alg, fmtF(tput/1e6, 1), fmtF(perGbit[alg], 1), relPct(perGbit, "lia", perGbit[alg], -100))
	}
	return res
}

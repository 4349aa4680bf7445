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
	res.addRows(runPar(cfg, res, len(specs), func(i int, wd *supervise.Watchdog) runRow {
		sp := specs[i]
		energies, events := fig6UserEnergies(cfg, wd, sp.n, sp.alg, transfer)
		b := stats.NewBox(energies)
		return runRow{events: events, cells: []string{
			fmt.Sprintf("%d", sp.n), sp.alg,
			fmtF(b.Min, 1), fmtF(b.Q1, 1), fmtF(b.Median, 1),
			fmtF(b.Q3, 1), fmtF(b.Max, 1), fmt.Sprintf("%d", len(b.Outliers))}}
	}))
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
// energy consumption of the N MPTCP transfers plus the events processed.
// When records are exported, user 0 is the observed connection (one record
// per run; the other users are statistically equivalent).
func fig6UserEnergies(cfg Config, wd *supervise.Watchdog, n int, alg string, transfer int64) ([]float64, uint64) {
	var meters []*energy.Meter
	out := make([]float64, n)
	w := cfg.run(wd, world{
		exp: "fig6", scenario: fmt.Sprintf("dumbbell-%dusers", n), alg: alg,
		sc: backend.Scenario{
			Topology: "dumbbell", Net: topo.Params{Size: 3 * n},
			EnergyModel: "none", Seed: cfg.Seed, Horizon: 600 * sim.Second,
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
	return out, w.Eng.Processed()
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
// Fig. 5b run, and of a Fig. 17 handset run: mean goodput (b/s), sender
// energy (J), events processed.
func shiftSummary(w *backend.World, obs *obsv.Observer) {
	obs.Summary("throughput_mbps", w.Conn.MeanThroughputBps()/1e6)
	obs.Summary("energy_j", w.Meter.Joules())
}

func shiftOutcome(w *backend.World) repOut {
	return repOut{v: [4]float64{w.Conn.MeanThroughputBps(), w.Meter.Joules()}, events: w.Eng.Processed()}
}

// shiftRun runs one Fig. 5b experiment; expID names the figure the run
// record (if any) is filed under.
func shiftRun(cfg Config, wd *supervise.Watchdog, expID string, seed int64, alg string, horizon sim.Time) repOut {
	return shiftOutcome(cfg.run(wd, world{
		exp: expID, scenario: "burst-twopath",
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
	// One pool run per (algorithm, repetition); the seed depends only on
	// the repetition index, exactly as the sequential loops derived it.
	means := meanOver(res, reps, runPar(cfg, res, len(fig7Algorithms)*reps, func(i int, wd *supervise.Watchdog) repOut {
		return shiftRun(cfg, wd, "fig7", cfg.Seed+int64(i%reps), fig7Algorithms[i/reps], horizon)
	}))
	for a, alg := range fig7Algorithms {
		tput, joules := means[a][0], means[a][1]
		gbits := tput * horizon.Seconds() / 1e9
		res.AddRow(alg, fmtF(tput/1e6, 1), fmtF(joules, 1), fmtF(joules/gbits, 1))
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
	type traceOut struct {
		rows   [][]string
		events uint64
	}
	// The per-sample stepping is inherently sequential within one run, so
	// the pool fans out over algorithms only.
	traces := runPar(cfg, res, len(algs), func(ai int, wd *supervise.Watchdog) traceOut {
		alg := algs[ai]
		var out traceOut
		w := cfg.run(wd, world{
			exp: "fig8", scenario: "burst-twopath",
			sc: burstTwoPath(cfg.Seed, alg, horizon),
			Stages: backend.Stages{
				Drive: func(w *backend.World) {
					var lastBytes uint64
					step := horizon / samples
					for i := 1; i <= samples; i++ {
						w.Eng.Run(step * sim.Time(i))
						delta := w.Conn.AckedBytes() - lastBytes
						lastBytes = w.Conn.AckedBytes()
						out.rows = append(out.rows, []string{alg, fmtF((step * sim.Time(i)).Seconds(), 0),
							fmtF(float64(delta)*8/step.Seconds()/1e6, 1),
							fmtF(w.Meter.Joules(), 1)})
					}
				},
				Summary: func(w *backend.World, obs *obsv.Observer) { obs.Summary("energy_j", w.Meter.Joules()) },
			},
		})
		out.events = w.Eng.Processed()
		return out
	})
	for _, tr := range traces {
		res.Rows = append(res.Rows, tr.rows...)
		res.Events += tr.events
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
	tputs := make(map[string]float64)
	algs := []string{"lia", "dts", "dts-lia", "dts-taylor"}
	means := meanOver(res, reps, runPar(cfg, res, len(algs)*reps, func(i int, wd *supervise.Watchdog) repOut {
		return shiftRun(cfg, wd, "fig9", cfg.Seed+int64(i%reps), algs[i/reps], horizon)
	}))
	for a, alg := range algs {
		tput, joules := means[a][0], means[a][1]
		perGbit[alg] = joules / (tput * horizon.Seconds() / 1e9)
		tputs[alg] = tput
	}
	for _, alg := range algs {
		saving := stats.RelChange(perGbit["lia"], perGbit[alg]) * -100
		res.AddRow(alg, fmtF(tputs[alg]/1e6, 1), fmtF(perGbit[alg], 1), fmtF(saving, 1))
	}
	return res
}

package exp

import (
	"fmt"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
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
	for _, fullN := range []int{10, 20, 50, 100} {
		n := cfg.scaled(fullN, 4)
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

// fig6UserEnergies runs one Fig. 5a experiment and returns the per-user
// energy consumption of the N MPTCP transfers plus the events processed.
// When records are exported, user 0 is the observed connection (one record
// per run; the other users are statistically equivalent).
func fig6UserEnergies(cfg Config, wd *supervise.Watchdog, n int, alg string, transfer int64) ([]float64, uint64) {
	eng := sim.NewEngine(cfg.Seed)
	wd.Attach(eng)
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{Users: 3 * n})
	obs := cfg.observe(eng, "fig6", fmt.Sprintf("dumbbell-%dusers", n), alg, cfg.Seed)
	defer obs.Abort()

	remaining := n
	meters := make([]*energy.Meter, n)
	for u := 0; u < n; u++ {
		u := u
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg, TransferBytes: transfer},
			uint64(u+1), d.MPTCPPaths(u)...)
		meters[u] = meterFor(eng, energy.NewI7(), conn)
		if u == 0 {
			obs.Conn("user0.", conn)
			obs.Meter("user0.host", meters[u])
		}
		conn.OnComplete = func(sim.Time) {
			meters[u].Stop()
			remaining--
			if remaining == 0 {
				eng.Stop()
			}
		}
		conn.Start()
	}
	// 2N long-lived TCP users, N per bottleneck.
	for u := 0; u < n; u++ {
		t0 := mptcp.MustNew(eng, mptcp.Config{Algorithm: "reno"}, uint64(1000+u), d.TCPPath(n+u, 0))
		t1 := mptcp.MustNew(eng, mptcp.Config{Algorithm: "reno"}, uint64(2000+u), d.TCPPath(2*n+u, 1))
		t0.Start()
		t1.Start()
	}
	obs.Start()
	eng.Run(600 * sim.Second)

	out := make([]float64, n)
	for u, m := range meters {
		m.Flush() // integrate the residual for transfers cut off by the horizon
		out[u] = m.Joules()
	}
	obs.Summary("user0_energy_j", out[0])
	obs.Close()
	return out, eng.Processed()
}

// fig7Algorithms are the existing algorithms compared for traffic shifting
// (plus the uncoupled cubic/vegas baselines, which shift nothing by design
// and anchor the comparison).
var fig7Algorithms = []string{"lia", "olia", "balia", "ecmtcp", "cubic", "vegas", "wvegas"}

// shiftRun runs one Fig. 5b experiment: an MPTCP connection over two paths
// with Pareto bursty cross traffic on each, returning mean goodput (b/s),
// sender energy (J) and events processed. expID names the figure the run
// record (if any) is filed under.
func shiftRun(cfg Config, wd *supervise.Watchdog, expID string, seed int64, alg string, horizon sim.Time) (tputBps, joules float64, events uint64) {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	// 45 Mb/s bursts on a 50 Mb/s path genuinely flip it to the Bad
	// state of Fig. 5b; on a faster path they would barely register.
	tp := topo.NewTwoPath(eng, topo.TwoPathConfig{Rate: 50 * netem.Mbps})
	for i := 0; i < 2; i++ {
		cross := workload.NewParetoOnOff(eng, []*netem.Link{tp.CrossEntry(i)}, workload.ParetoConfig{
			RateBps: 45 * netem.Mbps,
			MeanOff: 10 * sim.Second,
			MeanOn:  5 * sim.Second,
		})
		cross.Start()
	}
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg}, 1, tp.Paths()...)
	meter := meterFor(eng, energy.NewI7(), conn)
	obs := cfg.observe(eng, expID, "burst-twopath", alg, seed)
	defer obs.Abort()
	obs.Conn("", conn)
	obs.Meter("host", meter)
	obs.Start()
	conn.Start()
	eng.Run(horizon)
	meter.Flush()
	obs.Summary("throughput_mbps", conn.MeanThroughputBps()/1e6)
	obs.Summary("energy_j", meter.Joules())
	obs.Close()
	return conn.MeanThroughputBps(), meter.Joules(), eng.Processed()
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
	type shiftOut struct {
		tput, joules float64
		events       uint64
	}
	// One pool run per (algorithm, repetition); the seed depends only on
	// the repetition index, exactly as the sequential loops derived it.
	outs := runPar(cfg, res, len(fig7Algorithms)*reps, func(i int, wd *supervise.Watchdog) shiftOut {
		alg, r := fig7Algorithms[i/reps], i%reps
		tp, j, ev := shiftRun(cfg, wd, "fig7", cfg.Seed+int64(r), alg, horizon)
		return shiftOut{tput: tp, joules: j, events: ev}
	})
	for a, alg := range fig7Algorithms {
		var tput, joules float64
		for r := 0; r < reps; r++ {
			o := outs[a*reps+r]
			tput += o.tput
			joules += o.joules
			res.Events += o.events
		}
		tput /= float64(reps)
		joules /= float64(reps)
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
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		// 45 Mb/s bursts on a 50 Mb/s path genuinely flip it to the Bad
		// state of Fig. 5b; on a faster path they would barely register.
		tp := topo.NewTwoPath(eng, topo.TwoPathConfig{Rate: 50 * netem.Mbps})
		for i := 0; i < 2; i++ {
			workload.NewParetoOnOff(eng, []*netem.Link{tp.CrossEntry(i)}, workload.ParetoConfig{}).Start()
		}
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg}, 1, tp.Paths()...)
		meter := meterFor(eng, energy.NewI7(), conn)
		obs := cfg.observe(eng, "fig8", "burst-twopath", alg, cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Meter("host", meter)
		obs.Start()
		conn.Start()
		var out traceOut
		var lastBytes uint64
		step := horizon / samples
		for i := 1; i <= samples; i++ {
			eng.Run(step * sim.Time(i))
			delta := conn.AckedBytes() - lastBytes
			lastBytes = conn.AckedBytes()
			out.rows = append(out.rows, []string{alg, fmtF((step * sim.Time(i)).Seconds(), 0),
				fmtF(float64(delta)*8/step.Seconds()/1e6, 1),
				fmtF(meter.Joules(), 1)})
		}
		meter.Flush()
		obs.Summary("energy_j", meter.Joules())
		obs.Close()
		out.events = eng.Processed()
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
	type shiftOut struct {
		tput, joules float64
		events       uint64
	}
	outs := runPar(cfg, res, len(algs)*reps, func(i int, wd *supervise.Watchdog) shiftOut {
		alg, r := algs[i/reps], i%reps
		tp, j, ev := shiftRun(cfg, wd, "fig9", cfg.Seed+int64(r), alg, horizon)
		return shiftOut{tput: tp, joules: j, events: ev}
	})
	for a, alg := range algs {
		var tput, joules float64
		for r := 0; r < reps; r++ {
			o := outs[a*reps+r]
			tput += o.tput
			joules += o.joules
			res.Events += o.events
		}
		tput /= float64(reps)
		joules /= float64(reps)
		perGbit[alg] = joules / (tput * horizon.Seconds() / 1e9)
		tputs[alg] = tput
	}
	for _, alg := range algs {
		saving := stats.RelChange(perGbit["lia"], perGbit[alg]) * -100
		res.AddRow(alg, fmtF(tputs[alg]/1e6, 1), fmtF(perGbit[alg], 1), fmtF(saving, 1))
	}
	return res
}

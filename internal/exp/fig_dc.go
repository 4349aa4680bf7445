package exp

import (
	"fmt"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// This file reproduces §VI-C-1: the EC2 experiment (Fig. 10) and the
// htsim-style datacenter simulations (Figs. 12-16).

// Fig10 runs permutation transfers on the EC2 VPC under four algorithms
// and reports aggregate energy and completion time.
func Fig10(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig10",
		Title:   "EC2 VPC (4x256 Mb/s ENIs per host): aggregate energy per algorithm",
		Columns: []string{"alg", "paths", "mean_completion_s", "aggregate_j", "saving_vs_tcp_pct"},
		Notes: []string{
			"paper expectation: the multipath algorithms save up to ~70% of the single-path algorithms' aggregate energy; DTS ~ LIA",
		},
	}
	hosts := cfg.scaled(40, 8)
	transfer := cfg.scaledBytes(10<<30, 16<<20)

	algs := []struct {
		name  string
		paths int
	}{
		{name: "reno", paths: 1}, // the baseline
		{name: "dctcp", paths: 1},
		{name: "lia", paths: 4},
		{name: "dts-lia", paths: 4},
	}
	aggJ := make(map[string]float64)
	// Each run yields its aggregate energy (J) and mean completion time (s).
	for i, m := range means(runPar(cfg, res, len(algs), 1, func(i int, seed int64, wd *supervise.Watchdog) [4]float64 {
		a := algs[i]
		var meters []*energy.Meter
		var out [4]float64
		var doneSum float64
		cfg.run(wd, world{
			res: res, scenario: fmt.Sprintf("ec2-%dhosts", hosts), alg: a.name,
			sc: backend.Scenario{
				Topology: "ec2", Net: topo.Params{Size: hosts},
				EnergyModel: "none", Seed: seed, Horizon: 4000 * sim.Second,
			},
			Stages: backend.Stages{
				Attach: func(w *backend.World, obs *obsv.Observer) {
					perm := workload.Permutation(w.Eng, hosts)
					_, meters = hostUsers(w, obs, "host0.", hosts, mptcp.Config{Algorithm: a.name, TransferBytes: transfer},
						energy.NewXeon(), func(h int) []*netem.Path { return w.Net.Paths(h, perm[h], a.paths) },
						func(at sim.Time) { doneSum += at.Seconds() })
				},
				Summary: func(_ *backend.World, obs *obsv.Observer) {
					for _, m := range meters {
						m.Flush() // transfers the horizon cut off still owe their residual
						out[0] += m.Joules()
					}
					out[1] = doneSum / float64(hosts)
					obs.Summary("aggregate_j", out[0])
					obs.Summary("mean_completion_s", out[1])
				},
			},
		})
		return out
	})) {
		a := algs[i]
		aggJ[a.name] = m[0]
		res.AddRow(a.name, fmt.Sprintf("%d", a.paths),
			fmtF(m[1], 2), fmtF(m[0], 0), relPct(aggJ, "reno", m[0], -100))
	}
	return res
}

// dcParams sizes a datacenter topology by the scale knob: the paper's
// fabric (FatTree(8), VL2 64/8/8, BCube(5,2)) from scale 0.75 up, a small
// one below.
func dcParams(kind string, scale float64) topo.Params {
	switch {
	case scale >= 0.75:
		return topo.Params{}
	case kind == "fattree":
		return topo.Params{Size: 4}
	case kind == "vl2":
		return topo.Params{Size: 8} // 8 ToRs, 4 aggs, 4 ints
	case scale >= 0.12:
		return topo.Params{Size: 3, Levels: 2} // BCube: 27 hosts, 3 NICs each
	}
	return topo.Params{Size: 3, Levels: 1}
}

// dcRun runs one random-destination experiment, matching the paper's
// workload ("each host sends a long-lived MPTCP flow to another host,
// chosen at random"): destinations may collide, which is precisely why
// extra subflows cannot add capacity in the single-NIC FatTree/VL2 hosts
// but keep helping BCube's multi-NIC servers. It returns aggregate energy
// (J), aggregate goodput (bytes, and b/s over the horizon); the record
// holds host 0's connection and meter plus the aggregate outcome. priced
// enables the Eq. 6 energy price on the switch-to-switch links.
func dcRun(cfg Config, wd *supervise.Watchdog, res *Result, kind, scenario, alg string, seed int64, subflows int, horizon sim.Time, priced bool) [4]float64 {
	var conns []*mptcp.Conn
	var meters []*energy.Meter
	var joules float64
	var bytes uint64
	cfg.run(wd, world{
		res: res, scenario: scenario, alg: alg,
		sc: backend.Scenario{
			Topology: kind, Net: dcParams(kind, cfg.Scale),
			EnergyModel: "none", Seed: seed, Horizon: horizon,
		},
		Stages: backend.Stages{
			Attach: func(w *backend.World, obs *obsv.Observer) {
				if sw, ok := w.Net.(interface{ SwitchLinks() []*netem.Link }); ok && priced {
					for _, l := range sw.SwitchLinks() {
						l.SetPrice(1.0, 0.05, l.QueueLimit()/4)
					}
				}
				hosts := w.Net.Hosts()
				conns, meters = hostUsers(w, obs, "host0.", hosts, mptcp.Config{Algorithm: alg}, energy.NewI7(),
					func(h int) []*netem.Path {
						dst := w.Eng.Rand().Intn(hosts - 1)
						if dst >= h {
							dst++
						}
						return w.Net.Paths(h, dst, subflows)
					}, nil)
			},
			Summary: func(_ *backend.World, obs *obsv.Observer) {
				for i, c := range conns {
					meters[i].Flush()
					joules += meters[i].Joules()
					bytes += c.AckedBytes()
				}
				obs.Summary("aggregate_j", joules)
				obs.Summary("agg_goodput_mbps", float64(bytes)*8/horizon.Seconds()/1e6)
			},
		},
	})
	return [4]float64{joules, float64(bytes), float64(bytes) * 8 / horizon.Seconds()}
}

// dcOverheadSweep produces one of Figs. 12-14: energy overhead (J per
// gigabit delivered) of LIA as the subflow count grows.
func dcOverheadSweep(cfg Config, kind, expect string) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      map[string]string{"bcube": "fig12", "fattree": "fig13", "vl2": "fig14"}[kind],
		Title:   fmt.Sprintf("Energy overhead of LIA vs subflow count, %s", kind),
		Columns: []string{"subflows", "agg_goodput_mbps", "aggregate_j", "j_per_gbit"},
		Notes:   []string{expect},
	}
	horizon := cfg.scaledTime(60*sim.Second, 10*sim.Second)
	reps := cfg.reps(3)
	subflows := []int{1, 2, 4, 8}
	for s, m := range means(runPar(cfg, res, len(subflows), reps, func(s int, seed int64, wd *supervise.Watchdog) [4]float64 {
		nsub := subflows[s]
		return dcRun(cfg, wd, res, kind, fmt.Sprintf("%s-%dsub", kind, nsub), "lia", seed, nsub, horizon, false)
	})) {
		joules, bytes, tput := m[0], uint64(m[1]), m[2]
		res.AddRow(fmt.Sprintf("%d", subflows[s]), fmtF(tput/1e6, 0),
			fmtF(joules, 0), fmtF(energy.PerGigabit(joules, bytes), 1))
	}
	return res
}

// Fig12 is the BCube sweep (paper: more subflows reduce energy overhead).
func Fig12(cfg Config) *Result {
	return dcOverheadSweep(cfg, "bcube",
		"paper expectation: increasing subflows greatly reduces energy overhead in BCube (server-centric capacity grows with subflows)")
}

// Fig13 is the FatTree sweep (paper: no energy saving from more subflows).
func Fig13(cfg Config) *Result {
	return dcOverheadSweep(cfg, "fattree",
		"paper expectation: increasing subflows fails to save energy in FatTree")
}

// Fig14 is the VL2 sweep (paper: no energy saving from more subflows).
func Fig14(cfg Config) *Result {
	return dcOverheadSweep(cfg, "vl2",
		"paper expectation: increasing subflows fails to save energy in VL2")
}

// dcCompare runs the priced FatTree/VL2 experiment behind Figs. 15-16 —
// LIA vs DTS vs extended DTS with 8 subflows — once, and renders both
// figures' tables from it. Run records are filed under id, whose table the
// grid's events and notes accumulate on. A relative column whose topology's
// LIA cell has no row prints "-".
func dcCompare(cfg Config, id string) (fig15, fig16 *Result) {
	fig15 = &Result{
		ID:      "fig15",
		Title:   "Extended DTS (Eq. 9) energy, FatTree and VL2, 8 subflows",
		Columns: []string{"topology", "alg", "j_per_gbit", "saving_vs_lia_pct"},
		Notes: []string{
			"paper expectation: the extended algorithm saves up to ~20% energy cost vs LIA",
		},
	}
	fig16 = &Result{
		ID:      "fig16",
		Title:   "Aggregated throughput, FatTree and VL2, 8 subflows",
		Columns: []string{"topology", "alg", "agg_goodput_mbps", "vs_lia_pct"},
		Notes: []string{
			"paper expectation: DTS gets as good utilization as LIA",
		},
	}
	res := fig15
	if id == fig16.ID {
		res = fig16
	}
	cfg = cfg.withDefaults()
	horizon := cfg.scaledTime(60*sim.Second, 10*sim.Second)
	reps := cfg.reps(3)
	kinds := []string{"fattree", "vl2"}
	algs := []string{"lia", "dts-lia", "dtsep-lia"} // LIA first: the baseline
	// Each cell's J/Gb and goodput by "kind/alg", for the relative columns.
	jPerGbit, bps := make(map[string]float64), make(map[string]float64)
	for c, m := range means(runPar(cfg, res, len(kinds)*len(algs), reps, func(c int, seed int64, wd *supervise.Watchdog) [4]float64 {
		kind := kinds[c/len(algs)]
		return dcRun(cfg, wd, res, kind, fmt.Sprintf("%s-priced-8sub", kind), algs[c%len(algs)], seed, 8, horizon, true)
	})) {
		kind, alg := kinds[c/len(algs)], algs[c%len(algs)]
		key := kind + "/" + alg
		jPerGbit[key], bps[key] = energy.PerGigabit(m[0], uint64(m[1])), m[2]
		fig15.AddRow(kind, alg, fmtF(jPerGbit[key], 1), relPct(jPerGbit, kind+"/lia", jPerGbit[key], -100))
		fig16.AddRow(kind, alg, fmtF(m[2]/1e6, 0), relPct(bps, kind+"/lia", m[2], 100))
	}
	return fig15, fig16
}

// Fig15 reports the energy saving of the extended DTS in FatTree and VL2.
func Fig15(cfg Config) *Result {
	fig15, _ := dcCompare(cfg, "fig15")
	return fig15
}

// Fig16 reports the aggregated throughput of the same runs.
func Fig16(cfg Config) *Result {
	_, fig16 := dcCompare(cfg, "fig16")
	return fig16
}

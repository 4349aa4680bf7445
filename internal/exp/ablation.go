package exp

import (
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/pathsel"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// This file holds the ablation studies DESIGN.md calls out: the DTS
// constant c (the Pareto-optimality/fairness knob of §V-B), the extended
// algorithm's price weight κ_s (the energy/throughput tradeoff of Eq. 9),
// and the transport's slow-start exit guard.

func replaceAlg(conn *mptcp.Conn, alg core.Algorithm) { conn.SetAlgorithm(alg) }

func tcpConfigHystart(disable bool) tcp.Config {
	return tcp.Config{DisableHystart: disable}
}

// shiftRunWith runs the Fig. 5b scenario with an explicit algorithm
// instance (for parameterized variants outside the registry). Algorithm
// instances carry per-run state, so callers running on the pool must
// construct a fresh instance per run. expID and scenario identify the run
// record when Config.OutDir is set.
func shiftRunWith(cfg Config, wd *supervise.Watchdog, expID, scenario string, seed int64, alg core.Algorithm, horizon sim.Time) (tputBps, joules float64, events uint64) {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	tp := topo.NewTwoPath(eng, topo.TwoPathConfig{Rate: 50 * netem.Mbps})
	for i := 0; i < 2; i++ {
		workload.NewParetoOnOff(eng, []*netem.Link{tp.CrossEntry(i)}, workload.ParetoConfig{}).Start()
	}
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, tp.Paths()...)
	replaceAlg(conn, alg)
	meter := meterFor(eng, energy.NewI7(), conn)
	obs := cfg.observe(eng, expID, scenario, alg.Name(), seed)
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
	outs := runPar(cfg, res, len(cs)*reps, func(i int, wd *supervise.Watchdog) ablOut {
		c, r := cs[i/reps], i%reps
		// A fresh DTS instance per run: algorithm state is per-connection.
		tp, j, ev := shiftRunWith(cfg, wd, "abl-c", fmt.Sprintf("burst-c%g", c), cfg.Seed+int64(r), &core.DTS{C: c}, horizon)
		return ablOut{tput: tp, joules: j, events: ev}
	})
	for ci, c := range cs {
		var tput, joules float64
		for r := 0; r < reps; r++ {
			o := outs[ci*reps+r]
			tput += o.tput
			joules += o.joules
			res.Events += o.events
		}
		tput /= float64(reps)
		joules /= float64(reps)
		// Condition 1 evaluated at the design-point equilibrium ratio 1/2.
		eq := []core.View{{Cwnd: 20, SRTT: 0.04, LastRTT: 0.04, BaseRTT: 0.02}}
		cond := core.SatisfiesCondition1(&core.DTS{C: c}, eq, 1e-9)
		res.AddRow(fmtF(c, 1), fmtF(tput/1e6, 1),
			fmtF(joules/(tput*horizon.Seconds()/1e9), 1),
			fmt.Sprintf("%v", cond))
	}
	return res
}

// ablOut is one ablation run's payload on the pool.
type ablOut struct {
	tput, joules float64
	events       uint64
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
	type kappaOut struct {
		tput, share float64
		events      uint64
	}
	outs := runPar(cfg, res, len(kappas)*reps, func(i int, wd *supervise.Watchdog) kappaOut {
		kappa, r := kappas[i/reps], i%reps
		tp, sh, ev := pricedShiftRun(cfg, wd, fmt.Sprintf("priced-kappa%g", kappa), cfg.Seed+int64(r), &core.DTS{C: 1, LIA: true, Priced: true, Kappa: kappa}, horizon)
		return kappaOut{tput: tp, share: sh, events: ev}
	})
	for ki, kappa := range kappas {
		var tput, share float64
		for r := 0; r < reps; r++ {
			o := outs[ki*reps+r]
			tput += o.tput
			share += o.share
			res.Events += o.events
		}
		res.AddRow(fmt.Sprintf("%.0e", kappa),
			fmtF(tput/float64(reps)/1e6, 1),
			fmtF(share/float64(reps), 3))
	}
	return res
}

// pricedShiftRun runs two clean 50 Mb/s paths with the second one charged
// an energy price, returning goodput and the priced path's traffic share.
func pricedShiftRun(cfg Config, wd *supervise.Watchdog, scenario string, seed int64, alg core.Algorithm, horizon sim.Time) (tputBps, pricedShare float64, events uint64) {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	tp := topo.NewTwoPath(eng, topo.TwoPathConfig{Rate: 50 * netem.Mbps})
	for _, l := range tp.Paths()[1].Forward {
		l.SetPrice(1.0, 0.05, 25)
	}
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, tp.Paths()...)
	replaceAlg(conn, alg)
	obs := cfg.observe(eng, "abl-kappa", scenario, alg.Name(), seed)
	defer obs.Abort()
	obs.Conn("", conn)
	obs.Start()
	conn.Start()
	eng.Run(horizon)
	a0 := float64(conn.Subflows()[0].Acked())
	a1 := float64(conn.Subflows()[1].Acked())
	share := 0.0
	if a0+a1 > 0 {
		share = a1 / (a0 + a1)
	}
	obs.Summary("throughput_mbps", conn.MeanThroughputBps()/1e6)
	obs.Summary("priced_path_share", share)
	obs.Close()
	if a0+a1 == 0 {
		return 0, 0, eng.Processed()
	}
	return conn.MeanThroughputBps(), share, eng.Processed()
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
	res.addRows(runPar(cfg, res, len(variants), func(i int, wd *supervise.Watchdog) runRow {
		disable := variants[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 100 * netem.Mbps, Delay: 20 * sim.Millisecond, QueueLimit: 1500})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 100 * netem.Mbps, Delay: 20 * sim.Millisecond})
		p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
		conn := mptcp.MustNew(eng, mptcp.Config{
			Algorithm:     "reno",
			TransferBytes: transfer,
			Transport:     tcpConfigHystart(disable),
		}, 1, p)
		obs := cfg.observe(eng, "abl-hystart", fmt.Sprintf("hystart-%v", !disable), "reno", cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Start()
		conn.OnComplete = func(sim.Time) { eng.Stop() }
		conn.Start()
		eng.Run(600 * sim.Second)
		st := conn.Subflows()[0].Stats()
		obs.Summary("completion_s", conn.CompletedAt().Seconds())
		obs.Summary("loss_events", float64(st.LossEvents))
		obs.Summary("rtx", float64(st.PktsRtx))
		obs.Close()
		return runRow{events: eng.Processed(), cells: []string{
			fmt.Sprintf("%v", !disable),
			fmtF(conn.CompletedAt().Seconds(), 2),
			fmt.Sprintf("%d", st.LossEvents),
			fmt.Sprintf("%d", st.PktsRtx)}}
	}))
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
	outs := runPar(cfg, res, len(approaches)*reps, func(i int, wd *supervise.Watchdog) ablOut {
		approach, r := approaches[i/reps], i%reps
		tp, j, ev := pathselRun(cfg, wd, cfg.Seed+int64(r), approach, horizon)
		return ablOut{tput: tp, joules: j, events: ev}
	})
	for ai, approach := range approaches {
		var tput, joules float64
		for r := 0; r < reps; r++ {
			o := outs[ai*reps+r]
			tput += o.tput
			joules += o.joules
			res.Events += o.events
		}
		tput /= float64(reps)
		joules /= float64(reps)
		res.AddRow(approach, fmtF(tput/1e6, 2),
			fmtF(joules/horizon.Seconds(), 2),
			fmtF(joules/(tput*horizon.Seconds()/1e9), 1))
	}
	return res
}

// pathselRun runs the Fig. 17 wireless scenario with the given approach.
func pathselRun(cfg Config, wd *supervise.Watchdog, seed int64, approach string, horizon sim.Time) (tputBps, joules float64, events uint64) {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	het := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(0)}, workload.ParetoConfig{
		RateBps: 8 * netem.Mbps,
	}).Start()
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(1)}, workload.ParetoConfig{
		RateBps: 16 * netem.Mbps,
	}).Start()
	alg := approach
	if approach == "lia+selector" {
		alg = "lia"
	}
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg, RwndSegments: 45}, 1, het.Paths()...)
	if approach == "lia+selector" {
		pathsel.New(eng, conn, []energy.Model{energy.NewWiFi(), energy.NewLTE()},
			pathsel.Config{}).Start()
	}
	meter := newHandsetMeter(eng, conn, true)
	obs := cfg.observe(eng, "abl-pathsel", "hetwireless", approach, seed)
	defer obs.Abort()
	obs.Conn("", conn)
	obs.Sample("host.joules", func() float64 { return meter.joules })
	obs.Start()
	conn.Start()
	eng.Run(horizon)
	obs.Summary("throughput_mbps", conn.MeanThroughputBps()/1e6)
	obs.Summary("energy_j", meter.joules)
	obs.Close()
	return conn.MeanThroughputBps(), meter.joules, eng.Processed()
}

// fig17RunWith is fig17Run with an explicit algorithm instance.
func fig17RunWith(seed int64, alg core.Algorithm, horizon sim.Time) (tputBps, joules float64, events uint64) {
	eng := sim.NewEngine(seed)
	het := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
	for _, l := range het.Paths()[1].Forward {
		l.SetPrice(2.0, 0.1, 12)
	}
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(0)}, workload.ParetoConfig{
		RateBps: 8 * netem.Mbps,
	}).Start()
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(1)}, workload.ParetoConfig{
		RateBps: 16 * netem.Mbps,
	}).Start()
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia", RwndSegments: 45}, 1, het.Paths()...)
	replaceAlg(conn, alg)
	meter := newHandsetMeter(eng, conn, true)
	conn.Start()
	eng.Run(horizon)
	return conn.MeanThroughputBps(), meter.joules, eng.Processed()
}

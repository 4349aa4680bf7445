package exp

import (
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// This file reproduces §VI-C-2: the heterogeneous wireless experiment
// (Fig. 17). A mobile sender uses a WiFi path (10 Mb/s, 40 ms) and a 4G
// path (20 Mb/s, 100 ms) with 50-packet DropTail queues and a 64 KB
// receive buffer, under bursty cross traffic on both links, exactly the
// paper's ns-2 setup; handset energy comes from the Nexus radio models.

// fig17Run executes one 200 s (scaled) run and returns goodput (b/s),
// handset energy (J) and events processed. expID names the figure the run
// record (if any) is filed under.
func fig17Run(cfg Config, wd *supervise.Watchdog, expID string, seed int64, alg string, horizon sim.Time, priceLTE bool) (tputBps, joules float64, events uint64) {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	het := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
	if priceLTE {
		// The compensative parameter prices the energy-expensive 4G hop:
		// the LTE radio's high base power maps to a standing per-packet
		// price plus a queue-pressure term.
		for _, l := range het.Paths()[1].Forward {
			l.SetPrice(2.0, 0.1, 12)
		}
	}
	// Cross traffic on both links, scaled to each link's capacity so both
	// paths flip between Good and Bad states.
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(0)}, workload.ParetoConfig{
		RateBps: 8 * netem.Mbps,
	}).Start()
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(1)}, workload.ParetoConfig{
		RateBps: 16 * netem.Mbps,
	}).Start()

	const rwnd64KB = 45 // 64 KiB / 1448-byte segments
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg, RwndSegments: rwnd64KB},
		1, het.Paths()...)
	meter := newHandsetMeter(eng, conn, true)
	scenario := "hetwireless"
	if priceLTE {
		scenario = "hetwireless-priced"
	}
	obs := cfg.observe(eng, expID, scenario, alg, seed)
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
	algs := []string{"lia", "dts", "dts-lia", "dtsep"}
	type wlOut struct {
		tput, joules float64
		events       uint64
	}
	outs := runPar(cfg, res, len(algs)*reps, func(i int, wd *supervise.Watchdog) wlOut {
		alg, r := algs[i/reps], i%reps
		tp, j, ev := fig17Run(cfg, wd, "fig17", cfg.Seed+int64(r), alg, horizon, alg == "dtsep")
		return wlOut{tput: tp, joules: j, events: ev}
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
		gbits := tput * horizon.Seconds() / 1e9
		perGbit[alg] = joules / gbits
		tputs[alg] = tput
	}
	for _, alg := range algs {
		res.AddRow(alg,
			fmtF(tputs[alg]/1e6, 2),
			fmtF(perGbit[alg], 1),
			fmtF(stats.RelChange(perGbit["lia"], perGbit[alg])*-100, 1),
			fmtF(stats.RelChange(tputs["lia"], tputs[alg])*100, 1))
	}
	return res
}

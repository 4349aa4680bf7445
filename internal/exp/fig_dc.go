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

	type outcome struct {
		joules   float64
		meanDone float64
		events   uint64
	}
	algs := []struct {
		name  string
		paths int
	}{
		{name: "reno", paths: 1},
		{name: "dctcp", paths: 1},
		{name: "lia", paths: 4},
		{name: "dts-lia", paths: 4},
	}
	outcomes := runPar(cfg, res, len(algs), func(i int, wd *supervise.Watchdog) outcome {
		a := algs[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		vpc := topo.NewEC2VPC(eng, topo.EC2Config{Hosts: hosts, MarkThreshold: 20})
		perm := workload.Permutation(eng, hosts)
		obs := cfg.observe(eng, "fig10", fmt.Sprintf("ec2-%dhosts", hosts), a.name, cfg.Seed)
		defer obs.Abort()

		remaining := hosts
		meters := make([]*energy.Meter, hosts)
		var doneSum float64
		for h := 0; h < hosts; h++ {
			h := h
			conn := mptcp.MustNew(eng,
				mptcp.Config{Algorithm: a.name, TransferBytes: transfer},
				uint64(h+1), vpc.Paths(h, perm[h], a.paths)...)
			meters[h] = meterFor(eng, energy.NewXeon(), conn)
			if h == 0 {
				obs.Conn("host0.", conn)
				obs.Meter("host0.host", meters[h])
			}
			conn.OnComplete = func(at sim.Time) {
				meters[h].Stop()
				doneSum += at.Seconds()
				remaining--
				if remaining == 0 {
					eng.Stop()
				}
			}
			conn.Start()
		}
		obs.Start()
		eng.Run(4000 * sim.Second)
		var joules float64
		for _, m := range meters {
			m.Flush() // transfers the horizon cut off still owe their residual
			joules += m.Joules()
		}
		obs.Summary("aggregate_j", joules)
		obs.Summary("mean_completion_s", doneSum/float64(hosts))
		obs.Close()
		return outcome{joules: joules, meanDone: doneSum / float64(hosts), events: eng.Processed()}
	})
	base := outcomes[0].joules // algs[0] is reno
	for i, a := range algs {
		o := outcomes[i]
		res.Events += o.events
		res.AddRow(a.name, fmt.Sprintf("%d", a.paths),
			fmtF(o.meanDone, 2), fmtF(o.joules, 0),
			fmtF(stats.RelChange(base, o.joules)*-100, 1))
	}
	return res
}

// dcNet is the common surface of the three datacenter topologies.
type dcNet interface {
	Hosts() int
	Paths(src, dst, n int) []*netem.Path
}

// dcBuild constructs a datacenter topology sized by the scale knob.
func dcBuild(eng *sim.Engine, kind string, scale float64) dcNet {
	full := scale >= 0.75
	switch kind {
	case "fattree":
		k := 4
		if full {
			k = 8
		}
		ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: k})
		if err != nil {
			panic(err)
		}
		return ft
	case "vl2":
		c := topo.VL2Config{HostsPerToR: 2, ToRs: 8, Aggs: 4, Ints: 4}
		if full {
			c = topo.VL2Config{} // paper scale: 64 ToRs, 8 aggs, 8 ints
		}
		v, err := topo.NewVL2(eng, c)
		if err != nil {
			panic(err)
		}
		return v
	case "bcube":
		c := topo.BCubeConfig{N: 3, K: 1}
		switch {
		case full:
			c = topo.BCubeConfig{} // paper scale: BCube(5,2)
		case scale >= 0.12:
			c = topo.BCubeConfig{N: 3, K: 2} // 27 hosts, 3 NICs each
		}
		b, err := topo.NewBCube(eng, c)
		if err != nil {
			panic(err)
		}
		return b
	default:
		panic("unknown datacenter topology " + kind)
	}
}

// dcPricedLinks enables the Eq. 6 energy price on a topology's
// switch-to-switch links, when it has any.
func dcPricedLinks(net dcNet) {
	type switched interface{ SwitchLinks() []*netem.Link }
	sw, ok := net.(switched)
	if !ok {
		return
	}
	for _, l := range sw.SwitchLinks() {
		l.SetPrice(1.0, 0.05, l.QueueLimit()/4)
	}
}

// dcRun runs one random-destination experiment, matching the paper's
// workload ("each host sends a long-lived MPTCP flow to another host,
// chosen at random"): destinations may collide, which is precisely why
// extra subflows cannot add capacity in the single-NIC FatTree/VL2 hosts
// but keep helping BCube's multi-NIC servers. It returns aggregate energy
// (J), aggregate goodput (bytes) and the mean per-connection throughput
// (b/s). obs (which may be nil) records host 0's connection and meter plus
// the aggregate outcome, and is closed before dcRun returns.
func dcRun(net dcNet, eng *sim.Engine, alg string, subflows int, horizon sim.Time, priced bool, obs *expObs) (joules float64, bytes uint64, meanTput float64) {
	if priced {
		dcPricedLinks(net)
	}
	hosts := net.Hosts()
	conns := make([]*mptcp.Conn, 0, hosts)
	meters := make([]*energy.Meter, 0, hosts)
	for h := 0; h < hosts; h++ {
		dst := eng.Rand().Intn(hosts - 1)
		if dst >= h {
			dst++
		}
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg},
			uint64(h+1), net.Paths(h, dst, subflows)...)
		conns = append(conns, conn)
		meters = append(meters, meterFor(eng, energy.NewI7(), conn))
		if h == 0 {
			obs.Conn("host0.", conn)
			obs.Meter("host0.host", meters[h])
		}
		conn.Start()
	}
	obs.Start()
	eng.Run(horizon)
	for i, c := range conns {
		meters[i].Flush()
		joules += meters[i].Joules()
		bytes += c.AckedBytes()
		meanTput += c.MeanThroughputBps()
	}
	meanTput /= float64(hosts)
	obs.Summary("aggregate_j", joules)
	obs.Summary("agg_goodput_mbps", float64(bytes)*8/horizon.Seconds()/1e6)
	obs.Close()
	return joules, bytes, meanTput
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
	outs := runPar(cfg, res, len(subflows)*reps, func(i int, wd *supervise.Watchdog) dcOut {
		nsub, r := subflows[i/reps], i%reps
		eng := sim.NewEngine(cfg.Seed + int64(r))
		wd.Attach(eng)
		net := dcBuild(eng, kind, cfg.Scale)
		obs := cfg.observe(eng, res.ID, fmt.Sprintf("%s-%dsub", kind, nsub), "lia", cfg.Seed+int64(r))
		defer obs.Abort()
		j, b, _ := dcRun(net, eng, "lia", nsub, horizon, false, obs)
		return dcOut{joules: j, bytes: b, events: eng.Processed()}
	})
	for s, nsub := range subflows {
		var joules, tput float64
		var bytes uint64
		for r := 0; r < reps; r++ {
			o := outs[s*reps+r]
			joules += o.joules
			bytes += o.bytes
			tput += float64(o.bytes) * 8 / horizon.Seconds()
			res.Events += o.events
		}
		joules /= float64(reps)
		bytes /= uint64(reps)
		tput /= float64(reps)
		res.AddRow(fmt.Sprintf("%d", nsub), fmtF(tput/1e6, 0),
			fmtF(joules, 0), fmtF(energy.PerGigabit(joules, bytes), 1))
	}
	return res
}

// dcOut is one datacenter run's payload on the pool.
type dcOut struct {
	joules float64
	bytes  uint64
	events uint64
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

// dcCompareAlgs runs the priced FatTree/VL2 experiment behind Figs. 15-16:
// LIA vs DTS vs extended DTS with 8 subflows. Run records (if any) are
// filed under res.ID, and events accumulate straight onto res — Fig15 and
// Fig16 re-run the same experiment independently.
func dcCompareAlgs(cfg Config, res *Result) map[string]map[string][3]float64 {
	cfg = cfg.withDefaults()
	horizon := cfg.scaledTime(60*sim.Second, 10*sim.Second)
	reps := cfg.reps(3)
	kinds := []string{"fattree", "vl2"}
	algs := []string{"lia", "dts-lia", "dtsep-lia"}
	outs := runPar(cfg, res, len(kinds)*len(algs)*reps, func(i int, wd *supervise.Watchdog) dcOut {
		kind := kinds[i/(len(algs)*reps)]
		alg := algs[i/reps%len(algs)]
		r := i % reps
		eng := sim.NewEngine(cfg.Seed + int64(r))
		wd.Attach(eng)
		net := dcBuild(eng, kind, cfg.Scale)
		obs := cfg.observe(eng, res.ID, fmt.Sprintf("%s-priced-8sub", kind), alg, cfg.Seed+int64(r))
		defer obs.Abort()
		j, b, _ := dcRun(net, eng, alg, 8, horizon, true, obs)
		return dcOut{joules: j, bytes: b, events: eng.Processed()}
	})
	out := make(map[string]map[string][3]float64)
	for k, kind := range kinds {
		out[kind] = make(map[string][3]float64)
		for a, alg := range algs {
			var joules, tput float64
			var bytes uint64
			for r := 0; r < reps; r++ {
				o := outs[(k*len(algs)+a)*reps+r]
				joules += o.joules
				bytes += o.bytes
				tput += float64(o.bytes) * 8 / horizon.Seconds()
				res.Events += o.events
			}
			joules /= float64(reps)
			bytes /= uint64(reps)
			tput /= float64(reps)
			out[kind][alg] = [3]float64{energy.PerGigabit(joules, bytes), tput, joules}
		}
	}
	return out
}

// Fig15 reports the energy saving of the extended DTS in FatTree and VL2.
func Fig15(cfg Config) *Result {
	res := &Result{
		ID:      "fig15",
		Title:   "Extended DTS (Eq. 9) energy, FatTree and VL2, 8 subflows",
		Columns: []string{"topology", "alg", "j_per_gbit", "saving_vs_lia_pct"},
		Notes: []string{
			"paper expectation: the extended algorithm saves up to ~20% energy cost vs LIA",
		},
	}
	data := dcCompareAlgs(cfg, res)
	for _, kind := range []string{"fattree", "vl2"} {
		base := data[kind]["lia"][0]
		for _, alg := range []string{"lia", "dts-lia", "dtsep-lia"} {
			v := data[kind][alg]
			res.AddRow(kind, alg, fmtF(v[0], 1),
				fmtF(stats.RelChange(base, v[0])*-100, 1))
		}
	}
	return res
}

// Fig16 reports the aggregated throughput of the same runs.
func Fig16(cfg Config) *Result {
	res := &Result{
		ID:      "fig16",
		Title:   "Aggregated throughput, FatTree and VL2, 8 subflows",
		Columns: []string{"topology", "alg", "agg_goodput_mbps", "vs_lia_pct"},
		Notes: []string{
			"paper expectation: DTS gets as good utilization as LIA",
		},
	}
	data := dcCompareAlgs(cfg, res)
	for _, kind := range []string{"fattree", "vl2"} {
		base := data[kind]["lia"][1]
		for _, alg := range []string{"lia", "dts-lia", "dtsep-lia"} {
			v := data[kind][alg]
			res.AddRow(kind, alg, fmtF(v[1]/1e6, 0),
				fmtF(stats.RelChange(base, v[1])*100, 1))
		}
	}
	return res
}

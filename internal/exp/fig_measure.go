package exp

import (
	"fmt"
	"slices"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// This file reproduces the measurement study of §III: Figs. 1-4.

// twoNICPaths is the paper's testbed machine pair: two NICs, one disjoint
// single-link path per NIC — a substrate the topology registry does not name
// (its one-pair topologies are two-hop, with a shared hop for cross traffic).
// qlimit 0 sizes the queues to at least the bandwidth-delay product, as NIC
// rings and switch buffers on a real testbed are; a far-below-BDP buffer
// would collapse throughput at the gigabit rates of Fig. 3a.
func twoNICPaths(rate int64, delay sim.Time, qlimit int) func(*sim.Engine) []*netem.Path {
	if qlimit == 0 {
		qlimit = max(int(rate*int64(4*delay)/(8*1500*int64(sim.Second))), 100)
	}
	return func(eng *sim.Engine) []*netem.Path {
		return []*netem.Path{
			linkPath(eng, "nic0", rate, delay, qlimit, qlimit),
			linkPath(eng, "nic1", rate, delay, qlimit, qlimit),
		}
	}
}

// linkPath is a one-link-each-way path (reverse queue 0: the link default).
func linkPath(eng *sim.Engine, name string, rate int64, delay sim.Time, fwdQ, revQ int) *netem.Path {
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: name + "-f", Rate: rate, Delay: delay, QueueLimit: fwdQ})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-r", Rate: rate, Delay: delay, QueueLimit: revQ})
	return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
}

// Fig1 measures sender CPU power for classic TCP (one NIC) and MPTCP with
// a growing number of subflows across two 100 Mb/s NICs.
func Fig1(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig1",
		Title:   "CPU power vs number of subflows (i7-3770, 2x100 Mb/s NICs)",
		Columns: []string{"config", "subflows", "throughput_mbps", "power_w"},
		Notes: []string{
			"paper expectation: MPTCP consumes more CPU power than TCP, and power grows with the subflow count",
		},
	}
	horizon := cfg.scaledTime(30*sim.Second, 5*sim.Second)

	specs := []struct {
		label     string
		nsub      int
		singleNIC bool
	}{
		{"tcp-1nic", 1, true},
		{"mptcp-2nic", 2, false},
		{"mptcp-2nic", 4, false},
		{"mptcp-2nic", 6, false},
		{"mptcp-2nic", 8, false},
	}
	res.Rows = slices.Concat(runPar(cfg, res, len(specs), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		sp := specs[i]
		w := cfg.run(wd, world{
			res: res, scenario: fmt.Sprintf("%s-%dsub", sp.label, sp.nsub),
			sc: backend.Scenario{
				Algorithm: algFor(sp.nsub), Subflows: sp.nsub,
				EnergyModel: "i7", Seed: seed, Horizon: horizon,
			},
			Stages: backend.Stages{
				Ready: func(eng *sim.Engine) []*netem.Path {
					paths := twoNICPaths(100*netem.Mbps, 150*sim.Microsecond, 0)(eng)
					if sp.singleNIC {
						paths = paths[:1]
					}
					return paths
				},
				Summary: powerSummary,
			},
		})
		return []string{sp.label, fmt.Sprintf("%d", sp.nsub),
			fmtF(w.Conn.MeanThroughputBps()/1e6, 1), fmtF(w.Meter.MeanPower(), 2)}
	})...)
	return res
}

// algFor picks plain TCP for one subflow and LIA (the kernel default) for
// several.
func algFor(nsub int) string {
	if nsub == 1 {
		return "reno"
	}
	return "lia"
}

// Fig2 measures Nexus 5 handset power for TCP over WiFi, TCP over LTE and
// MPTCP over both, using the composite radio model.
func Fig2(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig2",
		Title:   "Nexus 5 power in data transfers",
		Columns: []string{"config", "throughput_mbps", "power_w"},
		Notes: []string{
			"paper expectation: MPTCP (WiFi+LTE) largely increases handset power over single-radio TCP",
		},
	}
	horizon := cfg.scaledTime(30*sim.Second, 5*sim.Second)

	specs := []struct {
		label           string
		useWiFi, useLTE bool
	}{
		{"tcp-wifi", true, false},
		{"tcp-lte", false, true},
		{"mptcp-wifi+lte", true, true},
	}
	res.Rows = slices.Concat(runPar(cfg, res, len(specs), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		sp := specs[i]
		alg := "lia"
		if !sp.useWiFi || !sp.useLTE {
			alg = "reno"
		}
		w := cfg.run(wd, world{
			res: res, scenario: sp.label,
			sc: backend.Scenario{Algorithm: alg, EnergyModel: "nexus5", Seed: seed, Horizon: horizon},
			Stages: backend.Stages{
				// One radio alone is a subset of the handset's routes, which a
				// Scenario cannot say; the routes themselves are the registry's.
				Ready: func(eng *sim.Engine) []*netem.Path {
					net, err := topo.Build(eng, "hetwireless", topo.Params{})
					if err != nil {
						panic(err)
					}
					routes := net.Paths(0, 1, 0)
					switch {
					case !sp.useLTE:
						return routes[:1]
					case !sp.useWiFi:
						return routes[1:]
					}
					return routes
				},
				Summary: powerSummary,
			},
		})
		return []string{sp.label, fmtF(w.Conn.MeanThroughputBps()/1e6, 1), fmtF(w.Meter.MeanPower(), 2)}
	})...)
	return res
}

// powerSummary files a power measurement's outcomes (Figs. 1-2): mean
// goodput and mean host power.
func powerSummary(w *backend.World, obs *obsv.Observer) {
	obs.Summary("throughput_mbps", w.Conn.MeanThroughputBps()/1e6)
	obs.Summary("power_w", w.Meter.MeanPower())
}

// Fig3a transfers a fixed amount of data over Ethernet at increasing
// available bandwidth and reports power and total energy.
func Fig3a(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig3a",
		Title:   "Energy & power vs throughput, wired (10 GB transfer)",
		Columns: []string{"bandwidth_mbps", "throughput_mbps", "power_w", "energy_j", "time_s"},
		Notes: []string{
			"paper expectation: power rises only ~15% from 200 Mb/s to 1 Gb/s; total energy falls with throughput",
			fmt.Sprintf("transfer scaled to %.0f MB", float64(cfg.scaledBytes(10<<30, 64<<20))/(1<<20)),
		},
	}
	transfer := cfg.scaledBytes(10<<30, 64<<20)

	rates := []int64{200, 400, 600, 800, 1000}
	res.Rows = slices.Concat(runPar(cfg, res, len(rates), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		mbps := rates[i]
		return transferRow(cfg, wd, mbps, world{
			res: res, scenario: fmt.Sprintf("wired-%dmbps", mbps),
			sc: backend.Scenario{
				Algorithm: "lia", TransferBytes: transfer,
				EnergyModel: "i7", Seed: seed, Horizon: 2000 * sim.Second,
			},
			Stages: backend.Stages{
				Ready: twoNICPaths(mbps/2*netem.Mbps, 150*sim.Microsecond, 0),
			},
		})
	})...)
	return res
}

// transferRow runs one fixed transfer (Figs. 3a/3b), stopping the meter and
// the engine at completion, and renders its row.
func transferRow(cfg Config, wd *supervise.Watchdog, mbps int64, r world) []string {
	var done sim.Time
	r.Attach = func(w *backend.World, obs *obsv.Observer) {
		w.Observe(obs)
		w.Conn.OnComplete = func(at sim.Time) {
			done = at
			w.Meter.Stop()
			w.Eng.Stop()
		}
	}
	r.Summary = func(w *backend.World, obs *obsv.Observer) {
		if done == 0 {
			done = w.Eng.Now() // cut by the horizon
		}
		obs.Summary("energy_j", w.Meter.Joules())
		obs.Summary("time_s", done.Seconds())
	}
	w := cfg.run(wd, r)
	return []string{
		fmt.Sprintf("%d", mbps),
		fmtF(w.Conn.MeanThroughputBps()/1e6, 1),
		fmtF(w.Meter.MeanPower(), 2),
		fmtF(w.Meter.Joules(), 1),
		fmtF(done.Seconds(), 2)}
}

// Fig3b downloads a fixed amount of data over WiFi at increasing rates.
func Fig3b(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig3b",
		Title:   "Energy & power vs throughput, WiFi (500 MB download)",
		Columns: []string{"bandwidth_mbps", "throughput_mbps", "power_w", "energy_j", "time_s"},
		Notes: []string{
			"paper expectation: WiFi power rises sharply (~90% from 10 to 50 Mb/s)",
			fmt.Sprintf("transfer scaled to %.0f MB", float64(cfg.scaledBytes(500<<20, 16<<20))/(1<<20)),
		},
	}
	transfer := cfg.scaledBytes(500<<20, 16<<20)

	rates := []int64{10, 20, 30, 40, 50}
	res.Rows = slices.Concat(runPar(cfg, res, len(rates), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		mbps := rates[i]
		return transferRow(cfg, wd, mbps, world{
			res: res, scenario: fmt.Sprintf("wifi-%dmbps", mbps),
			sc: backend.Scenario{
				Algorithm: "reno", TransferBytes: transfer,
				EnergyModel: "wifi", Seed: seed, Horizon: 4000 * sim.Second,
			},
			Stages: backend.Stages{
				// One WiFi link each way: no registered topology is a single hop.
				Ready: func(eng *sim.Engine) []*netem.Path {
					return []*netem.Path{linkPath(eng, "wifi", mbps*netem.Mbps, 20*sim.Millisecond, 100, 100)}
				},
			},
		})
	})...)
	return res
}

// Fig4 measures CPU power across path delays at fixed throughput. The
// paper raised delay by adding subflows per path (a kernel-scheduling
// side effect a packet simulator does not exhibit); here the delay knob
// is turned directly, which is the quantity Fig. 4 actually plots. This
// figure is a calibration anchor for the power model's RTT term (see
// EXPERIMENTS.md).
func Fig4(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:      "fig4",
		Title:   "CPU power vs path delay at fixed throughput",
		Columns: []string{"delay_ms", "mean_rtt_ms", "throughput_mbps", "power_w"},
		Notes: []string{
			"paper expectation: the flow on high-RTT paths consumes more CPU power at equal throughput",
			"the paper's num_subflows knob raises delay via kernel scheduling; the simulator turns the propagation-delay knob directly",
		},
	}
	horizon := cfg.scaledTime(30*sim.Second, 5*sim.Second)

	// Small delay steps with a fixed queue: large propagation delays would
	// make LIA's coupled recovery span the whole horizon and throughput
	// would no longer be held fixed (the paper's testbed delays are small).
	delays := []sim.Time{500 * sim.Microsecond, 2 * sim.Millisecond, 5 * sim.Millisecond}
	res.Rows = slices.Concat(runPar(cfg, res, len(delays), 1, func(i int, seed int64, wd *supervise.Watchdog) []string {
		delay := delays[i]
		var tput, power float64
		w := cfg.run(wd, world{
			res: res, scenario: fmt.Sprintf("delay-%dus", delay/sim.Microsecond),
			sc: backend.Scenario{Algorithm: "lia", EnergyModel: "i7", Seed: seed, Horizon: 2 * horizon},
			Stages: backend.Stages{
				Ready: twoNICPaths(100*netem.Mbps, delay, 100),
				// Discard the startup transient so the longer-RTT runs are
				// measured at the same steady throughput as the short ones.
				Drive: func(w *backend.World) {
					w.Eng.Run(horizon)
					bytes0, joules0 := w.Conn.AckedBytes(), w.Meter.Joules()
					w.Eng.Run(2 * horizon)
					w.Meter.Flush()
					window := horizon.Seconds()
					tput = float64(w.Conn.AckedBytes()-bytes0) * 8 / window
					power = (w.Meter.Joules() - joules0) / window
				},
				Summary: func(_ *backend.World, obs *obsv.Observer) {
					obs.Summary("throughput_mbps", tput/1e6)
					obs.Summary("power_w", power)
				},
			},
		})
		return []string{
			fmtF(delay.Seconds()*1000, 1),
			fmtF(w.Conn.MeanSRTTSeconds()*1000, 1),
			fmtF(tput/1e6, 1),
			fmtF(power, 2)}
	})...)
	return res
}

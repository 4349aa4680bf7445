package exp

import (
	"fmt"

	"mptcpsim/internal/supervise"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// This file reproduces the measurement study of §III: Figs. 1-4.

// twoNICPaths builds the paper's testbed machine pair: two NICs, one
// disjoint path per NIC. Queues are sized to at least the
// bandwidth-delay product, as NIC rings and switch buffers on a real
// testbed are; a far-below-BDP buffer would collapse throughput at the
// gigabit rates of Fig. 3a.
func twoNICPaths(eng *sim.Engine, rate int64, delay sim.Time) []*netem.Path {
	qlimit := int(rate * int64(4*delay) / (8 * 1500 * int64(sim.Second)))
	if qlimit < 100 {
		qlimit = 100
	}
	mk := func(name string) *netem.Path {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name + "-f", Rate: rate, Delay: delay, QueueLimit: qlimit})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-r", Rate: rate, Delay: delay, QueueLimit: qlimit})
		return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	return []*netem.Path{mk("nic0"), mk("nic1")}
}

// fixedQueuePaths is twoNICPaths with an explicit queue limit, for sweeps
// where the buffer must stay constant across rows.
func fixedQueuePaths(eng *sim.Engine, rate int64, delay sim.Time, qlimit int) []*netem.Path {
	mk := func(name string) *netem.Path {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name + "-f", Rate: rate, Delay: delay, QueueLimit: qlimit})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-r", Rate: rate, Delay: delay, QueueLimit: qlimit})
		return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	return []*netem.Path{mk("nic0"), mk("nic1")}
}

// repeatPaths fans n subflows over the given physical paths round-robin
// (the kernel path manager's num_subflows).
func repeatPaths(paths []*netem.Path, n int) []*netem.Path {
	out := make([]*netem.Path, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, paths[i%len(paths)])
	}
	return out
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
	res.addRows(runPar(cfg, res, len(specs), func(i int, wd *supervise.Watchdog) runRow {
		sp := specs[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		paths := twoNICPaths(eng, 100*netem.Mbps, 150*sim.Microsecond)
		if sp.singleNIC {
			paths = paths[:1]
		}
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: algFor(sp.nsub)}, 1, repeatPaths(paths, sp.nsub)...)
		meter := meterFor(eng, energy.NewI7(), conn)
		obs := cfg.observe(eng, "fig1", fmt.Sprintf("%s-%dsub", sp.label, sp.nsub), algFor(sp.nsub), cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Meter("host", meter)
		obs.Start()
		conn.Start()
		eng.Run(horizon)
		meter.Flush()
		obs.Summary("throughput_mbps", conn.MeanThroughputBps()/1e6)
		obs.Summary("power_w", meter.MeanPower())
		obs.Close()
		return runRow{events: eng.Processed(), cells: []string{
			sp.label, fmt.Sprintf("%d", sp.nsub),
			fmtF(conn.MeanThroughputBps()/1e6, 1), fmtF(meter.MeanPower(), 2)}}
	}))
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
	res.addRows(runPar(cfg, res, len(specs), func(i int, wd *supervise.Watchdog) runRow {
		sp := specs[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		het := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
		var paths []*netem.Path
		if sp.useWiFi {
			paths = append(paths, het.Paths()[0])
		}
		if sp.useLTE {
			paths = append(paths, het.Paths()[1])
		}
		alg := "lia"
		if len(paths) == 1 {
			alg = "reno"
		}
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg}, 1, paths...)
		meter := newHandsetMeter(eng, conn, sp.useWiFi && sp.useLTE)
		obs := cfg.observe(eng, "fig2", sp.label, alg, cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Sample("host.joules", func() float64 { return meter.joules })
		obs.Start()
		conn.Start()
		eng.Run(horizon)
		obs.Summary("throughput_mbps", conn.MeanThroughputBps()/1e6)
		obs.Summary("power_w", meter.MeanPower())
		obs.Close()
		return runRow{events: eng.Processed(), cells: []string{
			sp.label, fmtF(conn.MeanThroughputBps()/1e6, 1), fmtF(meter.MeanPower(), 2)}}
	}))
	return res
}

// handsetMeter integrates the Nexus composite model with per-radio
// throughput attribution (subflow 0 = WiFi when both radios are up).
type handsetMeter struct {
	eng    *sim.Engine
	model  *energy.NexusModel
	conn   *mptcp.Conn
	both   bool
	last   []int64
	joules float64
	lastT  sim.Time
}

func newHandsetMeter(eng *sim.Engine, conn *mptcp.Conn, both bool) *handsetMeter {
	m := &handsetMeter{
		eng:   eng,
		model: energy.NewNexus(),
		conn:  conn,
		both:  both,
		last:  make([]int64, len(conn.Subflows())),
	}
	m.lastT = eng.Now()
	eng.After(energy.DefaultInterval, m.tick)
	return m
}

func (m *handsetMeter) tick() {
	now := m.eng.Now()
	dt := now - m.lastT
	m.lastT = now
	var samples [2]energy.Sample // [wifi, lte]
	for i, s := range m.conn.Subflows() {
		acked := s.Acked()
		delta := acked - m.last[i]
		m.last[i] = acked
		tput := float64(delta) * 1448 * 8 / dt.Seconds()
		radio := 0
		if m.both && i == 1 || !m.both && s.Path().Name == "lte" {
			radio = 1
		}
		samples[radio].ThroughputBps += tput
		samples[radio].Subflows++
	}
	m.joules += m.model.PowerSplit(samples[0], samples[1]) * dt.Seconds()
	m.eng.After(energy.DefaultInterval, m.tick)
}

func (m *handsetMeter) MeanPower() float64 {
	if m.eng.Now() <= 0 {
		return 0
	}
	return m.joules / m.eng.Now().Seconds()
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
	res.addRows(runPar(cfg, res, len(rates), func(i int, wd *supervise.Watchdog) runRow {
		mbps := rates[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		paths := twoNICPaths(eng, mbps/2*netem.Mbps, 150*sim.Microsecond)
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia", TransferBytes: transfer}, 1, paths...)
		meter := meterFor(eng, energy.NewI7(), conn)
		obs := cfg.observe(eng, "fig3a", fmt.Sprintf("wired-%dmbps", mbps), "lia", cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Meter("host", meter)
		obs.Start()
		var done sim.Time
		conn.OnComplete = func(at sim.Time) {
			done = at
			meter.Stop()
			eng.Stop()
		}
		conn.Start()
		eng.Run(2000 * sim.Second)
		if done == 0 {
			done = eng.Now()
			meter.Flush()
		}
		obs.Summary("energy_j", meter.Joules())
		obs.Summary("time_s", done.Seconds())
		obs.Close()
		return runRow{events: eng.Processed(), cells: []string{
			fmt.Sprintf("%d", mbps),
			fmtF(conn.MeanThroughputBps()/1e6, 1),
			fmtF(meter.MeanPower(), 2),
			fmtF(meter.Joules(), 1),
			fmtF(done.Seconds(), 2)}}
	}))
	return res
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
	res.addRows(runPar(cfg, res, len(rates), func(i int, wd *supervise.Watchdog) runRow {
		mbps := rates[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: "wifi-f", Rate: mbps * netem.Mbps, Delay: 20 * sim.Millisecond, QueueLimit: 100})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: "wifi-r", Rate: mbps * netem.Mbps, Delay: 20 * sim.Millisecond, QueueLimit: 100})
		p := &netem.Path{Name: "wifi", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "reno", TransferBytes: transfer}, 1, p)
		meter := meterFor(eng, energy.NewWiFi(), conn)
		obs := cfg.observe(eng, "fig3b", fmt.Sprintf("wifi-%dmbps", mbps), "reno", cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Meter("host", meter)
		obs.Start()
		var done sim.Time
		conn.OnComplete = func(at sim.Time) {
			done = at
			meter.Stop()
			eng.Stop()
		}
		conn.Start()
		eng.Run(4000 * sim.Second)
		if done == 0 {
			done = eng.Now()
			meter.Flush()
		}
		obs.Summary("energy_j", meter.Joules())
		obs.Summary("time_s", done.Seconds())
		obs.Close()
		return runRow{events: eng.Processed(), cells: []string{
			fmt.Sprintf("%d", mbps),
			fmtF(conn.MeanThroughputBps()/1e6, 1),
			fmtF(meter.MeanPower(), 2),
			fmtF(meter.Joules(), 1),
			fmtF(done.Seconds(), 2)}}
	}))
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
	res.addRows(runPar(cfg, res, len(delays), func(i int, wd *supervise.Watchdog) runRow {
		delay := delays[i]
		eng := sim.NewEngine(cfg.Seed)
		wd.Attach(eng)
		paths := fixedQueuePaths(eng, 100*netem.Mbps, delay, 100)
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, paths...)
		meter := meterFor(eng, energy.NewI7(), conn)
		obs := cfg.observe(eng, "fig4", fmt.Sprintf("delay-%dus", delay/sim.Microsecond), "lia", cfg.Seed)
		defer obs.Abort()
		obs.Conn("", conn)
		obs.Meter("host", meter)
		obs.Start()
		conn.Start()
		// Discard the startup transient so the longer-RTT runs are
		// measured at the same steady throughput as the short ones.
		warmup := horizon
		eng.Run(warmup)
		bytes0, joules0 := conn.AckedBytes(), meter.Joules()
		eng.Run(warmup + horizon)
		meter.Flush()
		window := horizon.Seconds()
		tput := float64(conn.AckedBytes()-bytes0) * 8 / window
		power := (meter.Joules() - joules0) / window
		obs.Summary("throughput_mbps", tput/1e6)
		obs.Summary("power_w", power)
		obs.Close()
		return runRow{events: eng.Processed(), cells: []string{
			fmtF(delay.Seconds()*1000, 1),
			fmtF(conn.MeanSRTTSeconds()*1000, 1),
			fmtF(tput/1e6, 1),
			fmtF(power, 2)}}
	}))
	return res
}

package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

func TestCPUModelFig3aShape(t *testing.T) {
	// Fig. 3a: from 200 Mb/s to 1 Gb/s the package power rises by roughly
	// 15% — flat, sub-linear growth. The testbed is a LAN, so sub-ms RTTs.
	m := NewI7()
	low := m.Power(Sample{ThroughputBps: 200e6, Subflows: 2, MeanRTTSeconds: 0.0005})
	high := m.Power(Sample{ThroughputBps: 1000e6, Subflows: 2, MeanRTTSeconds: 0.0005})
	rise := (high - low) / low
	if rise < 0.10 || rise > 0.30 {
		t.Errorf("power rise 200M->1G = %.0f%%, want ~15-20%%", rise*100)
	}
}

func TestCPUModelFig1SubflowCost(t *testing.T) {
	// Fig. 1: power increases with the number of subflows; MPTCP (2+) above
	// TCP (1).
	m := NewI7()
	prev := 0.0
	for n := 1; n <= 8; n++ {
		p := m.Power(Sample{ThroughputBps: 100e6, Subflows: n, MeanRTTSeconds: 0.02})
		if p <= prev {
			t.Fatalf("power with %d subflows (%.2f W) not above %d subflows (%.2f W)",
				n, p, n-1, prev)
		}
		prev = p
	}
}

func TestCPUModelFig4RTTCost(t *testing.T) {
	// Fig. 4: at equal throughput, the high-RTT path costs more power.
	m := NewI7()
	low := m.Power(Sample{ThroughputBps: 100e6, Subflows: 2, MeanRTTSeconds: 0.02})
	high := m.Power(Sample{ThroughputBps: 100e6, Subflows: 2, MeanRTTSeconds: 0.1})
	if high <= low {
		t.Errorf("high-RTT power %.2f W <= low-RTT power %.2f W", high, low)
	}
}

func TestWiFiModelFig3bShape(t *testing.T) {
	// Fig. 3b: 10 -> 50 Mb/s raises WiFi power by ~90%.
	m := NewWiFi()
	low := m.Power(Sample{ThroughputBps: 10e6})
	high := m.Power(Sample{ThroughputBps: 50e6})
	rise := (high - low) / low
	if rise < 0.7 || rise > 1.1 {
		t.Errorf("WiFi power rise 10->50 Mb/s = %.0f%%, want ~90%%", rise*100)
	}
}

func TestLTEBaseDominates(t *testing.T) {
	// Huang et al.: the LTE radio's connected-state base power dwarfs the
	// per-bit cost at tens of Mb/s, and idle is far below active.
	m := NewLTE()
	idle := m.Power(Sample{})
	active := m.Power(Sample{ThroughputBps: 1e6})
	if active < 20*idle {
		t.Errorf("active LTE %.2f W not >> idle %.3f W", active, idle)
	}
	at20 := m.Power(Sample{ThroughputBps: 20e6})
	if at20 > 2*active {
		t.Errorf("LTE slope too steep: %.2f W at 20 Mb/s vs %.2f W at 1 Mb/s", at20, active)
	}
}

func TestNexusComposite(t *testing.T) {
	m := NewNexus()
	on := func(names ...string) Sample {
		paths := make([]PathSample, len(names))
		for i, name := range names {
			paths[i] = PathSample{Name: name, ThroughputBps: 20e6}
		}
		return PathsSample(paths)
	}
	idle := m.Power(Sample{})
	wifiOnly := m.Power(on("wifi"))
	both := m.Power(on("wifi", "lte"))
	if !(idle < wifiOnly && wifiOnly < both) {
		t.Errorf("want idle < wifi-only < wifi+lte, got %.2f, %.2f, %.2f", idle, wifiOnly, both)
	}
	// Fig. 2's headline: MPTCP (both radios) costs much more than WiFi TCP.
	if both < wifiOnly+1 {
		t.Errorf("adding the LTE radio gained only %.2f W; expected > 1 W", both-wifiOnly)
	}
	// Eq. 2 is a sum over interfaces: two subflows on one radio add their
	// goodput there, and the aggregate alone moves no radio.
	if got, want := m.Power(on("wifi", "wifi")), m.SoC+m.WiFi.Power(Sample{ThroughputBps: 40e6})+m.LTE.Power(Sample{}); got != want {
		t.Errorf("two subflows on wifi: %.3f W, want %.3f", got, want)
	}
	if got := m.Power(Sample{ThroughputBps: 20e6, Subflows: 1}); got != idle {
		t.Errorf("aggregate without a per-path breakdown: %.3f W, want idle %.3f", got, idle)
	}
	if m.HasRadio("path0") || !m.HasRadio("wifi") || !m.HasRadio("lte") {
		t.Error("HasRadio: want wifi and lte only")
	}
}

func TestLookupNames(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
		if (m == nil) != (name == "none") {
			t.Errorf("Lookup(%q) = %v", name, m)
		}
	}
	_, err := Lookup("abacus")
	if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("unknown model error %v does not list %v", err, Names())
	}
}

func TestPowerMonotoneInThroughputProperty(t *testing.T) {
	models := []Model{NewI7(), NewXeon(), NewWiFi(), NewLTE()}
	f := func(a, b uint32, flows uint8) bool {
		t1, t2 := float64(a%1000)*1e6, float64(b%1000)*1e6
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		n := int(flows%8) + 1
		for _, m := range models {
			p1 := m.Power(Sample{ThroughputBps: t1, Subflows: n, MeanRTTSeconds: 0.05})
			p2 := m.Power(Sample{ThroughputBps: t2, Subflows: n, MeanRTTSeconds: 0.05})
			if p1 > p2+1e-9 {
				return false
			}
			if p1 <= 0 || p2 <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeterIntegratesConstantPower(t *testing.T) {
	eng := sim.NewEngine(1)
	probe := func(sim.Time) Sample { return Sample{} }
	m := NewMeter(eng, Constant(7), probe, 10*sim.Millisecond)
	m.Start()
	eng.Run(2 * sim.Second)
	if math.Abs(m.Joules()-14) > 0.2 {
		t.Errorf("Joules = %.3f, want 7 W * 2 s = 14 J", m.Joules())
	}
	if math.Abs(m.MeanPower()-7) > 0.1 {
		t.Errorf("MeanPower = %.3f, want 7 W", m.MeanPower())
	}
}

func TestMeterStop(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(eng, Constant(1), func(sim.Time) Sample { return Sample{} }, 10*sim.Millisecond)
	m.Start()
	eng.At(sim.Second, m.Stop)
	eng.Run(5 * sim.Second)
	if math.Abs(m.Joules()-1) > 0.05 {
		t.Errorf("Joules = %.3f after Stop at 1 s, want ~1", m.Joules())
	}
	if eng.Pending() > 1 {
		t.Errorf("meter left %d events pending after Stop", eng.Pending())
	}
}

func TestMeterTrace(t *testing.T) {
	eng := sim.NewEngine(1)
	ticks := 0
	m := NewMeter(eng, Constant(3), func(sim.Time) Sample { ticks++; return Sample{} }, 100*sim.Millisecond)
	if m.LastWatts() != 0 {
		t.Errorf("LastWatts = %.2f before the first tick, want 0", m.LastWatts())
	}
	m.Start()
	eng.Run(sim.Second)
	if ticks != 10 {
		t.Errorf("meter probed %d times over 1 s at 100 ms, want 10", ticks)
	}
	if m.LastWatts() != 3 {
		t.Errorf("LastWatts = %.2f, want 3", m.LastWatts())
	}
}

func TestConnProbeMeasuresGoodput(t *testing.T) {
	eng := sim.NewEngine(1)
	mk := func(name string) *netem.Path {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name, Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "r", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond})
		return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	c := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, mk("a"), mk("b"))
	probe := ConnProbe(c)
	c.Start()

	var mid Sample
	eng.At(5*sim.Second, func() { mid = probe(5 * sim.Second) })
	eng.Run(5 * sim.Second)

	if mid.Subflows != 2 {
		t.Errorf("probe saw %d subflows, want 2", mid.Subflows)
	}
	if mid.ThroughputBps < 0.7*20e6 || mid.ThroughputBps > 20e6 {
		t.Errorf("probe throughput %.1f Mb/s, want near 20", mid.ThroughputBps/1e6)
	}
	if mid.MeanRTTSeconds <= 0 {
		t.Error("probe RTT not positive")
	}
}

func TestConnProbeDropsCompletedConns(t *testing.T) {
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: sim.Millisecond})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: sim.Millisecond})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	c := mptcp.MustNew(eng, mptcp.Config{Algorithm: "reno", TransferBytes: 100 << 10}, 1, p)
	probe := ConnProbe(c)
	c.Start()
	eng.Run(30 * sim.Second)
	if !c.Done() {
		t.Fatal("transfer did not complete")
	}
	s := probe(sim.Second)
	if s.Subflows != 0 {
		t.Errorf("completed connection still reports %d subflows", s.Subflows)
	}
}

func TestPerGigabit(t *testing.T) {
	if got := PerGigabit(50, 125e6); math.Abs(got-50) > 1e-9 { // 1 Gb delivered
		t.Errorf("PerGigabit = %v, want 50", got)
	}
	if PerGigabit(50, 0) != 0 {
		t.Error("PerGigabit with zero bytes should be 0")
	}
}

func TestEnergyFallsWithThroughputForFixedTransfer(t *testing.T) {
	// The central observation behind Eq. 2 and Fig. 3a: for a fixed amount
	// of data on a wired host, higher throughput means less total energy,
	// because power is nearly flat in throughput while time shrinks.
	m := NewI7()
	transferBits := 8e9 // 1 GB
	energyAt := func(tput float64) float64 {
		p := m.Power(Sample{ThroughputBps: tput, Subflows: 2, MeanRTTSeconds: 0.02})
		return p * transferBits / tput
	}
	if e200, e1000 := energyAt(200e6), energyAt(1000e6); e1000 >= e200 {
		t.Errorf("energy at 1 Gb/s (%.0f J) not below energy at 200 Mb/s (%.0f J)", e1000, e200)
	}
}

func TestMeterMeanPowerMidRunStart(t *testing.T) {
	// Regression: MeanPower used to divide by the engine clock, so a meter
	// started at t=3s that then ran 1 s at 5 W reported 5/4 W instead of 5 W.
	eng := sim.NewEngine(1)
	m := NewMeter(eng, Constant(5), func(sim.Time) Sample { return Sample{} }, 10*sim.Millisecond)
	eng.At(3*sim.Second, m.Start)
	eng.Run(4 * sim.Second)
	m.Flush()
	if math.Abs(m.Joules()-5) > 0.05 {
		t.Errorf("Joules = %.3f for 5 W over 1 s metered, want 5", m.Joules())
	}
	if math.Abs(m.MeanPower()-5) > 0.05 {
		t.Errorf("MeanPower = %.3f for a meter started mid-run, want 5 W", m.MeanPower())
	}
}

func TestMeterStopResidual(t *testing.T) {
	// Regression: Stop used to drop the partial interval since the last
	// tick. A coarse-interval meter stopped off-cadence must integrate the
	// same energy as a fine-interval one on constant power.
	stopAt := 1045 * sim.Millisecond
	joulesWith := func(interval sim.Time) float64 {
		eng := sim.NewEngine(1)
		m := NewMeter(eng, Constant(2), func(sim.Time) Sample { return Sample{} }, interval)
		m.Start()
		eng.At(stopAt, m.Stop)
		eng.Run(3 * sim.Second)
		return m.Joules()
	}
	fine, coarse := joulesWith(sim.Millisecond), joulesWith(250*sim.Millisecond)
	want := 2 * stopAt.Seconds()
	if math.Abs(fine-want) > 1e-6 {
		t.Errorf("fine-interval Joules = %.6f, want %.6f", fine, want)
	}
	if math.Abs(coarse-want) > 1e-6 {
		t.Errorf("coarse-interval Joules = %.6f, want %.6f (residual dropped?)", coarse, want)
	}
}

func TestMeterFlushResidualAtHorizon(t *testing.T) {
	// The engine horizon can cut the final tick off; Flush integrates the
	// remainder so the record covers the full run.
	eng := sim.NewEngine(1)
	m := NewMeter(eng, Constant(4), func(sim.Time) Sample { return Sample{} }, 300*sim.Millisecond)
	m.Start()
	eng.Run(sim.Second) // ticks at 0.3, 0.6, 0.9; 0.1 s residual pending
	if got := m.Joules(); math.Abs(got-3.6) > 1e-9 {
		t.Fatalf("Joules before Flush = %.3f, want 3.6", got)
	}
	m.Flush()
	if got := m.Joules(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Joules after Flush = %.3f, want 4 W * 1 s = 4", got)
	}
	m.Flush() // same-instant flush must not double-count
	if got := m.Joules(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Joules after second Flush = %.3f, want 4", got)
	}
}

func TestMeterDoubleStart(t *testing.T) {
	// Regression: a second Start used to schedule a second tick chain,
	// doubling both the event load and (via duplicated intervals) the probes.
	eng := sim.NewEngine(1)
	ticks := 0
	m := NewMeter(eng, Constant(1), func(sim.Time) Sample { ticks++; return Sample{} }, 100*sim.Millisecond)
	m.Start()
	eng.At(500*sim.Millisecond, m.Start) // must be a no-op while running
	eng.Run(sim.Second)
	if ticks != 10 {
		t.Errorf("meter probed %d times, want 10 (double-Start doubled the tick chain?)", ticks)
	}
	if math.Abs(m.Joules()-1) > 1e-9 {
		t.Errorf("Joules = %.3f, want 1", m.Joules())
	}
}

func TestMeterRestartAfterStop(t *testing.T) {
	// Start after Stop resumes metering: joules and the metered span extend,
	// and the gap contributes neither.
	eng := sim.NewEngine(1)
	m := NewMeter(eng, Constant(3), func(sim.Time) Sample { return Sample{} }, 10*sim.Millisecond)
	m.Start()
	eng.At(sim.Second, m.Stop)
	eng.At(3*sim.Second, m.Start)
	eng.Run(4 * sim.Second)
	m.Flush()
	// 1 s metered + 1 s gap-free restart span = 2 s at 3 W.
	if math.Abs(m.Joules()-6) > 0.05 {
		t.Errorf("Joules = %.3f across Stop/Start, want 6", m.Joules())
	}
	if math.Abs(m.MeanPower()-3) > 0.05 {
		t.Errorf("MeanPower = %.3f across Stop/Start, want 3 W", m.MeanPower())
	}
}

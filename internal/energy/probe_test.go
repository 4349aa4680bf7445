package energy

import (
	"math"
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// The Eq. 2 per-path form: a connection splitting traffic unevenly across
// a short and a long path must report a traffic-weighted RTT closer to
// the path that carries more.
func TestConnProbeTrafficWeightedRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	mk := func(name string, rate int64, delay sim.Time) *netem.Path {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name, Rate: rate, Delay: delay, QueueLimit: 200})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "r", Rate: rate, Delay: delay, QueueLimit: 200})
		return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	// Fast path carries ~5x the traffic of the slow one.
	fast := mk("fast", 50*netem.Mbps, 5*sim.Millisecond)
	slow := mk("slow", 10*netem.Mbps, 60*sim.Millisecond)
	c := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, fast, slow)
	probe := ConnProbe(c)
	c.Start()

	var weighted float64
	eng.At(20*sim.Second, func() { weighted = probe(20 * sim.Second).MeanRTTSeconds })
	eng.Run(20 * sim.Second)

	s0 := c.Subflows()[0].SRTT().Seconds()
	s1 := c.Subflows()[1].SRTT().Seconds()
	plain := (s0 + s1) / 2
	if weighted >= plain {
		t.Errorf("traffic-weighted RTT %.1fms not below unweighted mean %.1fms (fast %.1f, slow %.1f)",
			weighted*1000, plain*1000, s0*1000, s1*1000)
	}
	if weighted < s0 || weighted > s1 {
		t.Errorf("weighted RTT %.1fms outside [fast %.1f, slow %.1f]",
			weighted*1000, s0*1000, s1*1000)
	}
}

// The per-path breakdown names each subflow's path and splits the goodput
// the aggregate reports; a completed connection's last delivery stays
// attributed to its paths while it drops out of the aggregate's subflows.
func TestConnProbePerPathBreakdown(t *testing.T) {
	eng := sim.NewEngine(1)
	mk := func(name string, rate int64) *netem.Path {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name, Rate: rate, Delay: 5 * sim.Millisecond})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "r", Rate: rate, Delay: 5 * sim.Millisecond})
		return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	c := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia", TransferBytes: 8 << 20}, 1,
		mk("wifi", 10*netem.Mbps), mk("lte", 20*netem.Mbps))
	probe := ConnProbe(c)
	c.Start()
	eng.Run(2 * sim.Second)
	s := probe(2 * sim.Second)
	if len(s.Paths) != 2 || s.Paths[0].Name != "wifi" || s.Paths[1].Name != "lte" {
		t.Fatalf("paths = %+v, want wifi then lte", s.Paths)
	}
	sum := s.Paths[0].ThroughputBps + s.Paths[1].ThroughputBps
	if s.ThroughputBps <= 0 || math.Abs(sum-s.ThroughputBps) > 0.02*s.ThroughputBps {
		t.Errorf("per-path goodput sums to %.2f Mb/s, aggregate %.2f", sum/1e6, s.ThroughputBps/1e6)
	}
	for r, sub := range c.Subflows() {
		if s.Paths[r].RTTSeconds != sub.SRTT().Seconds() {
			t.Errorf("path %d RTT %v, subflow SRTT %v", r, s.Paths[r].RTTSeconds, sub.SRTT().Seconds())
		}
	}
	if s.Paths[1].ThroughputBps <= s.Paths[0].ThroughputBps {
		t.Errorf("the 20 Mb/s path carried %.2f Mb/s, the 10 Mb/s path %.2f", s.Paths[1].ThroughputBps/1e6, s.Paths[0].ThroughputBps/1e6)
	}

	eng.Run(30 * sim.Second)
	if !c.Done() {
		t.Fatal("transfer did not complete")
	}
	last := probe(28 * sim.Second)
	if last.Subflows != 0 || len(last.Paths) != 2 {
		t.Fatalf("completed: %d subflows, %d paths; want 0 and 2", last.Subflows, len(last.Paths))
	}
	if last.Paths[0].ThroughputBps <= 0 || last.Paths[1].ThroughputBps <= 0 {
		t.Errorf("the last delivery went unattributed: %+v", last.Paths)
	}
	if idle := probe(sim.Second); idle.Paths[0].ThroughputBps != 0 || idle.Paths[1].ThroughputBps != 0 {
		t.Errorf("a finished connection still shows goodput: %+v", idle.Paths)
	}
}

// A meter tick allocates nothing: the probe fills its per-path breakdown in
// place, whether over one subflow, eight, or the several connections of one
// host (the shape of the datacentre figures' 128 meters).
func TestMeterTickAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name            string
		conns, subflows int
	}{{"1 subflow", 1, 1}, {"8 subflows", 1, 8}, {"4 connections of 8", 4, 8}} {
		eng := sim.NewEngine(1)
		var conns []*mptcp.Conn
		for c := 0; c < tc.conns; c++ {
			paths := make([]*netem.Path, tc.subflows)
			for r := range paths {
				fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 100 * netem.Mbps, Delay: sim.Millisecond})
				rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 100 * netem.Mbps, Delay: sim.Millisecond})
				paths[r] = &netem.Path{Name: "wifi", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
			}
			conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, uint64(c+1), paths...)
			conn.Start()
			conns = append(conns, conn)
		}
		for _, model := range []Model{NewI7(), NewNexus()} {
			m := NewMeter(eng, model, ConnProbe(conns...), 0)
			m.Start()
			eng.Run(eng.Now() + sim.Second)
			before := m.Joules()
			if n := testing.AllocsPerRun(100, func() {
				eng.Run(eng.Now() + sim.Nanosecond) // advance the clock so Flush has a span to integrate
				m.Flush()
			}); n != 0 {
				t.Errorf("%s, %s: %v allocs per meter tick, want 0", tc.name, model.Name(), n)
			}
			if m.Joules() <= before {
				t.Errorf("%s, %s: the measured ticks integrated nothing", tc.name, model.Name())
			}
			m.Stop()
		}
	}
}

func TestMeterDefaultInterval(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(eng, Constant(2), func(sim.Time) Sample { return Sample{} }, 0)
	m.Start()
	eng.Run(sim.Second)
	if math.Abs(m.Joules()-2) > 0.05 {
		t.Errorf("Joules = %v over 1s at 2W with default interval, want ~2", m.Joules())
	}
}

func TestXeonAboveI7(t *testing.T) {
	s := Sample{ThroughputBps: 100e6, Subflows: 2, MeanRTTSeconds: 0.01}
	if NewXeon().Power(s) <= NewI7().Power(s) {
		t.Error("Xeon server power not above the desktop i7")
	}
}

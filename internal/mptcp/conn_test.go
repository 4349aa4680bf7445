package mptcp

import (
	"math"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// makePath builds a symmetric two-way path over a single bidirectional link
// pair with the given forward rate, one-way delay and queue limit.
func makePath(eng *sim.Engine, name string, rate int64, delay sim.Time, qlimit int) *netem.Path {
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: name + "-fwd", Rate: rate, Delay: delay, QueueLimit: qlimit})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-rev", Rate: rate, Delay: delay, QueueLimit: qlimit})
	return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
}

func newConn(t *testing.T, eng *sim.Engine, cfg Config, id uint64, paths ...*netem.Path) *Conn {
	t.Helper()
	c, err := New(eng, cfg, id, paths...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSinglePathTransferCompletes(t *testing.T) {
	eng := sim.NewEngine(1)
	p := makePath(eng, "p", 10*netem.Mbps, 10*sim.Millisecond, 100)
	c := newConn(t, eng, Config{Algorithm: "reno", TransferBytes: 1 << 20}, 1, p)
	var doneAt sim.Time
	c.OnComplete = func(at sim.Time) { doneAt = at }
	c.Start()
	eng.Run(60 * sim.Second)

	if !c.Done() {
		t.Fatal("1 MiB transfer over 10 Mb/s did not complete in 60 s")
	}
	if doneAt != c.CompletedAt() || doneAt == 0 {
		t.Errorf("completion callback at %v, CompletedAt %v", doneAt, c.CompletedAt())
	}
	// 1 MiB over 10 Mb/s is ~0.84 s minimum; slow start adds a little.
	if doneAt < 800*sim.Millisecond || doneAt > 3*sim.Second {
		t.Errorf("completed at %v, want roughly 0.9-2 s", doneAt.Duration())
	}
	if got := c.AckedBytes(); got < 1<<20 {
		t.Errorf("acked %d bytes, want >= 1 MiB", got)
	}
}

func TestLongFlowFillsBottleneck(t *testing.T) {
	eng := sim.NewEngine(1)
	p := makePath(eng, "p", 20*netem.Mbps, 5*sim.Millisecond, 100)
	c := newConn(t, eng, Config{Algorithm: "reno"}, 1, p)
	c.Start()
	eng.Run(10 * sim.Second)

	tput := c.MeanThroughputBps()
	if tput < 0.85*20e6 || tput > 20e6 {
		t.Errorf("long Reno flow got %.1f Mb/s of a 20 Mb/s bottleneck", tput/1e6)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	// Big pipe, no losses: watch cwnd after a few RTTs of slow start.
	p := makePath(eng, "p", netem.Gbps, 20*sim.Millisecond, 10000)
	c := newConn(t, eng, Config{Algorithm: "reno"}, 1, p)
	c.Start()
	// ~5 RTTs in: cwnd should be around 10 * 2^5.
	eng.Run(210 * sim.Millisecond)
	cwnd := c.Subflows()[0].Cwnd()
	if cwnd < 100 || cwnd > 1000 {
		t.Errorf("cwnd after ~5 RTTs of slow start = %v, want roughly 10*2^5", cwnd)
	}
}

func TestLossTriggersFastRetransmitNotTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	// Small queue forces periodic drops.
	p := makePath(eng, "p", 10*netem.Mbps, 10*sim.Millisecond, 16)
	c := newConn(t, eng, Config{Algorithm: "reno"}, 1, p)
	c.Start()
	eng.Run(20 * sim.Second)

	st := c.Subflows()[0].Stats()
	if st.LossEvents == 0 {
		t.Fatal("no loss events despite a 16-packet queue")
	}
	if st.Timeouts > st.LossEvents/2 {
		t.Errorf("timeouts (%d) not rare relative to fast retransmits (%d)",
			st.Timeouts, st.LossEvents)
	}
	// The flow keeps using the link well despite losses.
	if tput := c.MeanThroughputBps(); tput < 0.7*10e6 {
		t.Errorf("lossy-bottleneck throughput %.1f Mb/s, want > 7", tput/1e6)
	}
}

func TestSurvivesHeavyRandomLoss(t *testing.T) {
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 10 * sim.Millisecond, LossProb: 0.05})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 10 * sim.Millisecond})
	p := &netem.Path{Name: "lossy", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	c := newConn(t, eng, Config{Algorithm: "reno", TransferBytes: 256 << 10}, 1, p)
	c.Start()
	eng.Run(120 * sim.Second)
	if !c.Done() {
		t.Fatalf("transfer stalled under 5%% random loss: acked %d bytes, stats %+v",
			c.AckedBytes(), c.Subflows()[0].Stats())
	}
}

func TestRTTEstimatorTracksPath(t *testing.T) {
	eng := sim.NewEngine(1)
	p := makePath(eng, "p", 100*netem.Mbps, 25*sim.Millisecond, 1000)
	c := newConn(t, eng, Config{Algorithm: "reno", TransferBytes: 64 << 10}, 1, p)
	c.Start()
	eng.Run(10 * sim.Second)

	s := c.Subflows()[0]
	base := p.BaseRTT(1500, 52)
	if s.BaseRTT() < base || s.BaseRTT() > base+5*sim.Millisecond {
		t.Errorf("BaseRTT = %v, path floor %v", s.BaseRTT().Duration(), base.Duration())
	}
	if s.SRTT() < base || s.SRTT() > 2*base {
		t.Errorf("SRTT = %v, want near %v on an unloaded path", s.SRTT().Duration(), base.Duration())
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	eng := sim.NewEngine(1)
	// One shared bottleneck link forward; separate reverse links.
	shared := netem.NewLink(eng, netem.LinkConfig{Name: "btl", Rate: 20 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 60})
	mk := func(name string) *netem.Path {
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-rev", Rate: 100 * netem.Mbps, Delay: 10 * sim.Millisecond})
		return &netem.Path{Name: name, Forward: []*netem.Link{shared}, Reverse: []*netem.Link{rev}}
	}
	c1 := newConn(t, eng, Config{Algorithm: "reno"}, 1, mk("a"))
	c2 := newConn(t, eng, Config{Algorithm: "reno"}, 2, mk("b"))
	c1.Start()
	c2.Start()
	eng.Run(30 * sim.Second)

	t1, t2 := c1.MeanThroughputBps(), c2.MeanThroughputBps()
	if t1+t2 < 0.85*20e6 {
		t.Errorf("aggregate %.1f Mb/s, want near 20", (t1+t2)/1e6)
	}
	ratio := t1 / t2
	if ratio < 0.6 || ratio > 1.67 {
		t.Errorf("unfair share: %.1f vs %.1f Mb/s", t1/1e6, t2/1e6)
	}
}

func TestMPTCPAggregatesDisjointPaths(t *testing.T) {
	for _, alg := range []string{"lia", "olia", "balia", "dts"} {
		t.Run(alg, func(t *testing.T) {
			eng := sim.NewEngine(1)
			p1 := makePath(eng, "p1", 10*netem.Mbps, 10*sim.Millisecond, 100)
			p2 := makePath(eng, "p2", 10*netem.Mbps, 10*sim.Millisecond, 100)
			c := newConn(t, eng, Config{Algorithm: alg}, 1, p1, p2)
			c.Start()
			eng.Run(20 * sim.Second)
			tput := c.MeanThroughputBps()
			if tput < 0.75*20e6 {
				t.Errorf("%s aggregate over two 10 Mb/s paths = %.1f Mb/s, want > 15", alg, tput/1e6)
			}
		})
	}
}

func TestLIAFriendlyAtSharedBottleneck(t *testing.T) {
	eng := sim.NewEngine(1)
	// MPTCP with both subflows through the shared bottleneck, against one
	// regular TCP. RFC 6356 goal: MPTCP takes no more than a regular TCP
	// would on its best path.
	shared := netem.NewLink(eng, netem.LinkConfig{Name: "btl", Rate: 20 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 60})
	mk := func(name string) *netem.Path {
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-rev", Rate: 100 * netem.Mbps, Delay: 10 * sim.Millisecond})
		return &netem.Path{Name: name, Forward: []*netem.Link{shared}, Reverse: []*netem.Link{rev}}
	}
	mp := newConn(t, eng, Config{Algorithm: "lia"}, 1, mk("m1"), mk("m2"))
	tcpFlow := newConn(t, eng, Config{Algorithm: "reno"}, 2, mk("t"))
	mp.Start()
	tcpFlow.Start()
	eng.Run(40 * sim.Second)

	mpT, tcpT := mp.MeanThroughputBps(), tcpFlow.MeanThroughputBps()
	// Real LIA exceeds the RFC's aspirational <=1x goal — Khalili et al.
	// (the OLIA paper) measure up to ~2x over the fair share, which is this
	// paper's motivation for Pareto-optimal designs. Assert LIA stays in
	// the empirically observed band rather than the idealized one.
	if mpT > 1.8*tcpT {
		t.Errorf("LIA (%.1f Mb/s) starved TCP (%.1f Mb/s) beyond the known ~1.5x aggressiveness",
			mpT/1e6, tcpT/1e6)
	}
	if mpT < 0.6*tcpT {
		t.Errorf("LIA (%.1f Mb/s) got starved by TCP (%.1f Mb/s)", mpT/1e6, tcpT/1e6)
	}
	if mpT+tcpT < 0.85*20e6 {
		t.Errorf("aggregate %.1f Mb/s, want near 20", (mpT+tcpT)/1e6)
	}
}

func TestSharedBottleneckAggressivenessBands(t *testing.T) {
	run := func(alg string) float64 {
		eng := sim.NewEngine(7)
		shared := netem.NewLink(eng, netem.LinkConfig{Name: "btl", Rate: 20 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 60})
		mk := func(name string) *netem.Path {
			rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-rev", Rate: 100 * netem.Mbps, Delay: 10 * sim.Millisecond})
			return &netem.Path{Name: name, Forward: []*netem.Link{shared}, Reverse: []*netem.Link{rev}}
		}
		mp := MustNew(eng, Config{Algorithm: alg}, 1, mk("m1"), mk("m2"))
		tcpFlow := MustNew(eng, Config{Algorithm: "reno"}, 2, mk("t"))
		mp.Start()
		tcpFlow.Start()
		eng.Run(120 * sim.Second)
		return mp.MeanThroughputBps() / tcpFlow.MeanThroughputBps()
	}
	// Theory for two equal-RTT subflows at one bottleneck (Mathis-style):
	// EWTCP's per-ACK increase a/w with a = 1/sqrt(n) gives each subflow
	// sqrt(a) of a TCP's rate, i.e. an aggregate n^(3/4) ~ 1.68x for n=2;
	// LIA sits between the RFC's 1x goal and its measured ~1.5-2x
	// aggressiveness (Khalili et al.). DropTail synchronization makes
	// single runs noisy, hence the generous bands over a 120 s horizon.
	rEW, rLIA := run("ewtcp"), run("lia")
	if rEW < 1.3 || rEW > 2.5 {
		t.Errorf("EWTCP/TCP ratio %.2f, want ~1.68", rEW)
	}
	if rLIA < 0.7 || rLIA > 2.2 {
		t.Errorf("LIA/TCP ratio %.2f, want within the known [1, 2] band", rLIA)
	}
	if rLIA >= rEW {
		t.Errorf("LIA ratio %.2f >= EWTCP ratio %.2f; coupling should reduce aggressiveness", rLIA, rEW)
	}
}

func TestRwndCapsTotalInflight(t *testing.T) {
	eng := sim.NewEngine(1)
	p1 := makePath(eng, "p1", 100*netem.Mbps, 50*sim.Millisecond, 1000)
	p2 := makePath(eng, "p2", 100*netem.Mbps, 50*sim.Millisecond, 1000)
	const rwnd = 44 // 64 KiB / 1448
	c := newConn(t, eng, Config{Algorithm: "lia", RwndSegments: rwnd}, 1, p1, p2)
	c.Start()
	for at := sim.Second; at <= 10*sim.Second; at += 100 * sim.Millisecond {
		eng.Run(at)
		if got := c.inflight(); got > rwnd {
			t.Fatalf("inflight %d exceeds rwnd %d at %v", got, rwnd, at.Duration())
		}
	}
	// And the cap should actually bind on this long fat path (BDP >> rwnd).
	tput := c.MeanThroughputBps()
	maxByRwnd := float64(rwnd) * 1448 * 8 / 0.1 // rwnd per RTT
	if tput > 1.2*maxByRwnd {
		t.Errorf("throughput %.1f Mb/s exceeds rwnd-limited bound %.1f", tput/1e6, maxByRwnd/1e6)
	}
}

func TestWVegasKeepsQueuesShort(t *testing.T) {
	run := func(alg string) int {
		eng := sim.NewEngine(1)
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 20 * sim.Millisecond, QueueLimit: 200})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 20 * sim.Millisecond})
		p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
		c := MustNew(eng, Config{Algorithm: alg}, 1, p)
		c.Start()
		peak := 0
		for at := 5 * sim.Second; at <= 15*sim.Second; at += 50 * sim.Millisecond {
			eng.Run(at)
			if q := fwd.QueueLen(); q > peak {
				peak = q
			}
		}
		return peak
	}
	vegasQ, renoQ := run("wvegas"), run("reno")
	if vegasQ >= renoQ {
		t.Errorf("wVegas peak queue %d >= Reno peak queue %d; delay-based control should keep queues shorter", vegasQ, renoQ)
	}
	if vegasQ > 30 {
		t.Errorf("wVegas peak queue %d, want small (total alpha is 10 packets)", vegasQ)
	}
}

func TestDCTCPKeepsQueueShorterThanReno(t *testing.T) {
	run := func(alg string) float64 {
		eng := sim.NewEngine(1)
		fwd := netem.NewLink(eng, netem.LinkConfig{
			Name: "f", Rate: 100 * netem.Mbps, Delay: sim.Millisecond,
			QueueLimit: 200, MarkThreshold: 20,
		})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 100 * netem.Mbps, Delay: sim.Millisecond})
		p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
		c := MustNew(eng, Config{Algorithm: alg}, 1, p)
		c.Start()
		var sum float64
		n := 0
		for at := 2 * sim.Second; at <= 10*sim.Second; at += 10 * sim.Millisecond {
			eng.Run(at)
			sum += float64(fwd.QueueLen())
			n++
		}
		return sum / float64(n)
	}
	dctcpQ, renoQ := run("dctcp"), run("reno")
	if dctcpQ >= renoQ/2 {
		t.Errorf("DCTCP mean queue %.1f not well below Reno's %.1f", dctcpQ, renoQ)
	}
}

func TestDTSShiftsTrafficOffDelayedPath(t *testing.T) {
	// Path 1 gets heavy cross traffic (modelled as a slower drained queue by
	// halving its rate mid-run is complex; instead give it a standing queue
	// via a competing long flow). DTS should put a larger share of its
	// window on the clean path than LIA does.
	run := func(alg string) (clean, congested float64) {
		eng := sim.NewEngine(3)
		p1 := makePath(eng, "clean", 20*netem.Mbps, 10*sim.Millisecond, 100)
		p2 := makePath(eng, "busy", 20*netem.Mbps, 10*sim.Millisecond, 100)
		// Competing Reno flow congesting p2's forward link.
		comp := MustNew(eng, Config{Algorithm: "reno"}, 9,
			&netem.Path{Name: "comp", Forward: p2.Forward,
				Reverse: []*netem.Link{netem.NewLink(eng, netem.LinkConfig{Name: "crev", Rate: 100 * netem.Mbps, Delay: 10 * sim.Millisecond})}})
		mp := MustNew(eng, Config{Algorithm: alg}, 1, p1, p2)
		comp.Start()
		mp.Start()
		eng.Run(30 * sim.Second)
		subs := mp.Subflows()
		return float64(subs[0].Acked()), float64(subs[1].Acked())
	}
	dtsClean, dtsBusy := run("dts")
	liaClean, liaBusy := run("lia")
	dtsShare := dtsClean / (dtsClean + dtsBusy)
	liaShare := liaClean / (liaClean + liaBusy)
	if dtsShare <= liaShare {
		t.Errorf("DTS clean-path share %.2f <= LIA's %.2f; DTS should shift more traffic to the low-delay path",
			dtsShare, liaShare)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		eng := sim.NewEngine(42)
		p1 := makePath(eng, "p1", 10*netem.Mbps, 10*sim.Millisecond, 50)
		p2 := makePath(eng, "p2", 10*netem.Mbps, 30*sim.Millisecond, 50)
		c := MustNew(eng, Config{Algorithm: "lia"}, 1, p1, p2)
		c.Start()
		eng.Run(10 * sim.Second)
		return c.AckedBytes(), c.Subflows()[0].Cwnd()
	}
	b1, w1 := run()
	b2, w2 := run()
	if b1 != b2 || math.Abs(w1-w2) > 0 {
		t.Errorf("identical seeds diverged: bytes %d vs %d, cwnd %v vs %v", b1, b2, w1, w2)
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := New(eng, Config{Algorithm: "lia"}, 1); err == nil {
		t.Error("New with no paths succeeded")
	}
	p := makePath(eng, "p", 10*netem.Mbps, sim.Millisecond, 10)
	if _, err := New(eng, Config{Algorithm: "bogus"}, 1, p); err == nil {
		t.Error("New with unknown algorithm succeeded")
	}
}

func TestFinitePreciseByteCount(t *testing.T) {
	eng := sim.NewEngine(1)
	p := makePath(eng, "p", 10*netem.Mbps, 5*sim.Millisecond, 100)
	// 14480 bytes = exactly 10 segments of tcp.MSS.
	c := newConn(t, eng, Config{Algorithm: "reno", TransferBytes: 10 * tcp.MSS}, 1, p)
	c.Start()
	eng.Run(10 * sim.Second)
	if !c.Done() {
		t.Fatal("tiny transfer did not complete")
	}
	if got := c.Subflows()[0].Stats().PktsSent; got != 10 {
		t.Errorf("sent %d new segments, want exactly 10", got)
	}
}

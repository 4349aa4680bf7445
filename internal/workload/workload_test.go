package workload

import (
	"math"
	"testing"
	"testing/quick"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

func testLink(eng *sim.Engine, rate int64) *netem.Link {
	return netem.NewLink(eng, netem.LinkConfig{
		Name: "w", Rate: rate, Delay: sim.Millisecond, QueueLimit: 1000,
	})
}

func TestCBRRate(t *testing.T) {
	eng := sim.NewEngine(1)
	l := testLink(eng, netem.Gbps)
	c := NewCBR(eng, []*netem.Link{l}, 12*netem.Mbps)
	c.Start()
	eng.Run(10 * sim.Second)
	// 12 Mb/s for 10 s = 15 MB = 10000 packets of 1500 B.
	if got := c.Sent(); got < 9990 || got > 10010 {
		t.Errorf("sent %d packets, want ~10000", got)
	}
	if c.Delivered() < c.Sent()-5 {
		t.Errorf("delivered %d of %d on an uncongested link", c.Delivered(), c.Sent())
	}
}

func TestCBRStop(t *testing.T) {
	eng := sim.NewEngine(1)
	l := testLink(eng, netem.Gbps)
	c := NewCBR(eng, []*netem.Link{l}, 10*netem.Mbps)
	c.Start()
	eng.At(sim.Second, c.Stop)
	eng.Run(10 * sim.Second)
	want := uint64(10e6) / (1500 * 8)
	if got := c.Sent(); got > want+2 {
		t.Errorf("sent %d packets after Stop at 1 s, want <= ~%d", got, want)
	}
}

func TestParetoOnOffDutyCycle(t *testing.T) {
	eng := sim.NewEngine(42)
	l := testLink(eng, netem.Gbps)
	p := NewParetoOnOff(eng, []*netem.Link{l}, 45*netem.Mbps)
	p.Start()
	const horizon = 2000 * sim.Second
	eng.Run(horizon)

	// Expected duty cycle 5/(10+5) = 1/3. Pareto(1.5) has infinite
	// variance, so accept a wide band over this horizon.
	duty := float64(p.OnTime()) / float64(horizon)
	if duty < 0.15 || duty > 0.6 {
		t.Errorf("duty cycle %.2f, want around 1/3", duty)
	}
	// Rate during bursts should be ~45 Mb/s: sent bytes / on-time.
	rate := float64(p.Sent()) * 1500 * 8 / p.OnTime().Seconds()
	if math.Abs(rate-45e6) > 2e6 {
		t.Errorf("burst rate %.1f Mb/s, want 45", rate/1e6)
	}
}

func TestParetoOnOffStops(t *testing.T) {
	eng := sim.NewEngine(7)
	l := testLink(eng, netem.Gbps)
	p := NewParetoOnOff(eng, []*netem.Link{l}, 45*netem.Mbps)
	p.Start()
	eng.At(30*sim.Second, p.Stop)
	eng.Run(60 * sim.Second)
	at30 := p.Sent()
	eng.Run(200 * sim.Second)
	if p.Sent() != at30 {
		t.Errorf("generator kept sending after Stop: %d -> %d", at30, p.Sent())
	}
}

// TestCBREmitDoesNotAllocate: the packet clock is a sim.Ticker and the packets
// come from the source's pool, so steady-state cross traffic costs no heap
// object per packet (it used to build one method value per emit).
func TestCBREmitDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCBR(eng, []*netem.Link{testLink(eng, netem.Gbps)}, 50*netem.Mbps)
	c.Start()
	eng.Run(sim.Second) // warm the pool and the engine's slab
	sent := c.Sent()
	step := func() { eng.Run(eng.Now() + 100*sim.Millisecond) }
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("%v allocations per 100 ms of a 50 Mb/s source, want 0", allocs)
	}
	if per := (c.Sent() - sent) / 11; per < 410 || per > 420 {
		t.Errorf("%d packets per 100 ms, want ~416", per)
	}
}

// TestParetoOnOffStopCancelsPendingEvents is the regression test for the
// timer leak: Stop used to only set a flag, leaving the Off-gap (or burst
// tick/end) timer live in the event queue — a zombie event that could fire a
// whole post-Stop burst and kept a "drained" engine from ever emptying.
func TestParetoOnOffStopCancelsPendingEvents(t *testing.T) {
	// Stop during the Off gap: the pending burst timer must be cancelled.
	eng := sim.NewEngine(7)
	l := testLink(eng, netem.Gbps)
	p := NewParetoOnOff(eng, []*netem.Link{l}, 45*netem.Mbps)
	p.Start()
	if eng.Pending() == 0 {
		t.Fatal("Start scheduled nothing")
	}
	p.Stop()
	if n := eng.Pending(); n != 0 {
		t.Errorf("Stop during Off gap left %d events in the queue", n)
	}

	// Stop mid-burst: the tick chain and the burst-end event must both go.
	// A probe event halts the engine as soon as a burst is in progress.
	eng = sim.NewEngine(7)
	l = testLink(eng, netem.Gbps)
	p = NewParetoOnOff(eng, []*netem.Link{l}, 45*netem.Mbps)
	p.Start()
	var watch func()
	watch = func() {
		if p.Active() {
			eng.Stop()
			return
		}
		eng.ScheduleAfter(sim.Millisecond, watch)
	}
	eng.ScheduleAfter(sim.Millisecond, watch)
	eng.Run(1000 * sim.Second)
	if !p.Active() {
		t.Fatal("generator never entered a burst")
	}
	p.Stop()
	if p.Active() {
		t.Error("generator still Active after Stop")
	}
	at := p.Sent()
	// Packets already in flight still traverse the link, but generation has
	// ceased and nothing the generator owns is left behind: the queue drains
	// completely instead of carrying burst timers to their natural expiry.
	eng.Run(2000 * sim.Second)
	if p.Sent() != at {
		t.Errorf("generator kept sending after mid-burst Stop: %d -> %d", at, p.Sent())
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("%d events left in the heap after drain", n)
	}
}

func TestParetoDurationMean(t *testing.T) {
	eng := sim.NewEngine(3)
	p := NewParetoOnOff(eng, nil, 45*netem.Mbps)
	// Shape 1.5 has infinite variance, so the sample mean converges too
	// slowly to test. The log of a draw does not: ln(d/scale) is
	// exponential with mean 1/shape, and scale = mean·(shape-1)/shape, so
	// the draws' minimum and log mean pin the 5 s mean.
	const shape, mean = 1.5, 5.0
	scale := mean * (shape - 1) / shape
	var sumLog float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := p.paretoDuration().Seconds()
		if d < scale*0.999 {
			t.Fatalf("draw %.3f s below the Pareto scale %.3f s", d, scale)
		}
		sumLog += math.Log(d / scale)
	}
	if got := sumLog / n; math.Abs(got-1/shape) > 0.03 {
		t.Errorf("mean log(draw/scale) = %.3f, want 1/shape = %.3f: the mean is not 5 s", got, 1/shape)
	}
}

func TestExpDurationMean(t *testing.T) {
	eng := sim.NewEngine(3)
	p := NewParetoOnOff(eng, nil, 45*netem.Mbps)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.expDuration(10 * sim.Second).Seconds()
	}
	if mean := sum / n; math.Abs(mean-10) > 0.5 {
		t.Errorf("exponential sample mean %.2f s, want ~10 s", mean)
	}
}

func TestPermutationProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%60) + 2
		eng := sim.NewEngine(seed)
		perm := Permutation(eng, n)
		if len(perm) != n {
			return false
		}
		seen := make([]bool, n)
		for i, v := range perm {
			if v == i || v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPermutationTrivialSizes(t *testing.T) {
	eng := sim.NewEngine(1)
	if Permutation(eng, 1) != nil {
		t.Error("Permutation(1) should be nil (no non-self mapping exists)")
	}
	if got := Permutation(eng, 2); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("Permutation(2) = %v, want [1 0]", got)
	}
}

func TestSinkCounts(t *testing.T) {
	var s Sink
	s.Receive(&netem.Packet{Size: 100})
	s.Receive(&netem.Packet{Size: 200})
	if s.Pkts != 2 || s.Bytes != 300 {
		t.Errorf("sink counted %d pkts %d bytes, want 2/300", s.Pkts, s.Bytes)
	}
}

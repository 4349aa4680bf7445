package netem

import (
	"testing"

	"mptcpsim/internal/sim"
)

func TestLinkDownDropsArrivalsQueueDrains(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: 10 * Mbps, Delay: sim.Millisecond})
	c := &collector{eng: eng}
	for i := int64(0); i < 5; i++ {
		sendOne(eng, []*Link{l}, c, 1500, i)
	}
	l.SetDown()
	if !l.Down() {
		t.Fatal("Down() false after SetDown")
	}
	// Arrivals while down are dropped and counted.
	sendOne(eng, []*Link{l}, c, 1500, 99)
	eng.Run(sim.Second)
	if len(c.pkts) != 5 {
		t.Fatalf("delivered %d, want 5 (queue drains, arrival dropped)", len(c.pkts))
	}
	if got := l.OutageDropped(); got != 1 {
		t.Errorf("OutageDropped = %d, want 1", got)
	}
}

func TestLinkSetUpResumesService(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: 10 * Mbps, Delay: sim.Millisecond})
	c := &collector{eng: eng}
	eng.Schedule(0, func() { l.SetDown() })
	eng.Schedule(sim.Millisecond, func() { sendOne(eng, []*Link{l}, c, 1500, 0) }) // dropped
	eng.Schedule(10*sim.Millisecond, func() { l.SetUp() })
	eng.Schedule(11*sim.Millisecond, func() { sendOne(eng, []*Link{l}, c, 1500, 1) })
	eng.Run(sim.Second)
	if len(c.pkts) != 1 || c.pkts[0].Seq != 1 {
		t.Fatalf("delivered %v, want exactly the post-recovery packet", c.pkts)
	}
	if got := l.OutageDropped(); got != 1 {
		t.Errorf("OutageDropped = %d, want 1", got)
	}
}

func TestLinkSetRateChangesServiceTime(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: 10 * Mbps, Delay: 0})
	c := &collector{eng: eng}
	slow := l.TxTime(1500)
	l.SetRate(100 * Mbps)
	if l.Rate() != 100*Mbps {
		t.Fatalf("Rate = %d after SetRate", l.Rate())
	}
	fast := l.TxTime(1500)
	if fast >= slow {
		t.Fatalf("TxTime did not shrink after rate increase: %v >= %v", fast, slow)
	}
	sendOne(eng, []*Link{l}, c, 1500, 0)
	eng.Run(sim.Second)
	if len(c.at) != 1 || c.at[0] != fast {
		t.Errorf("delivered at %v, want %v (new rate)", c.at, fast)
	}
}

func TestLinkSetDelayAndLossProbClamp(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: 10 * Mbps, Delay: sim.Millisecond})
	l.SetDelay(-sim.Second)
	if l.Delay() != 0 {
		t.Errorf("negative delay not clamped to 0: %v", l.Delay())
	}
	l.SetDelay(5 * sim.Millisecond)
	if l.Delay() != 5*sim.Millisecond {
		t.Errorf("Delay = %v, want 5ms", l.Delay().Duration())
	}
	l.SetLossProb(2)
	if l.LossProb() != 1 {
		t.Errorf("LossProb = %v, want clamp at 1", l.LossProb())
	}
	l.SetLossProb(-0.5)
	if l.LossProb() != 0 {
		t.Errorf("LossProb = %v, want clamp at 0", l.LossProb())
	}
}

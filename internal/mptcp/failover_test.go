package mptcp

import (
	"testing"

	"mptcpsim/internal/faults"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// The headline robustness scenario: one of two paths dies mid-transfer and
// comes back later. The transfer must complete with every byte accounted
// for exactly once — the dead subflow's unacked data re-injected on the
// survivor — and the subflow must return to service after the path heals.
func TestTransferSurvivesPathOutage(t *testing.T) {
	eng := sim.NewEngine(1)
	p1 := makePath(eng, "p1", 10*netem.Mbps, 10*sim.Millisecond, 50)
	p2 := makePath(eng, "p2", 10*netem.Mbps, 10*sim.Millisecond, 50)
	const segs = 8000
	c := newConn(t, eng, Config{Algorithm: "lia", TransferBytes: segs * 1448}, 1, p1, p2)
	faults.Apply(eng, p2, faults.Outage{Down: sim.Second, Up: 4 * sim.Second})

	failedMidRun := false
	eng.Schedule(3500*sim.Millisecond, func() { failedMidRun = c.Subflows()[1].State() != tcp.StateActive })

	c.Start()
	eng.Run(60 * sim.Second)

	if !c.Done() {
		t.Fatalf("transfer did not complete: acked %d bytes, sub1 %+v",
			c.AckedBytes(), c.Subflows()[1].Stats())
	}
	if got := c.AckedBytes(); got != segs*1448 {
		t.Errorf("AckedBytes = %d, want exactly %d (no double counting)", got, segs*1448)
	}
	if c.ackedSegs != segs {
		t.Errorf("ackedSegs = %d, want exactly %d", c.ackedSegs, segs)
	}
	if !failedMidRun {
		t.Error("subflow 1 not dead while its path was down")
	}
	st := c.Subflows()[1].Stats()
	if st.Fails < 1 || st.Revivals < 1 {
		t.Errorf("sub1 Fails=%d Revivals=%d, want >=1 each", st.Fails, st.Revivals)
	}
	if c.Subflows()[1].State() != tcp.StateActive {
		t.Error("subflow 1 still dead after the path healed")
	}
	if c.ReinjectedSegs() == 0 {
		t.Error("no segments were re-injected despite a mid-transfer outage")
	}
	// The revived subflow actually carried load again: its cumulative ACK
	// must exceed what it had when it froze (everything sent before t=1s).
	if acked := c.Subflows()[1].Acked(); acked < 100 {
		t.Errorf("sub1 acked only %d segments; revival carried no data", acked)
	}
}

// Permanent failure: graceful degradation to single-path TCP.
func TestTransferDegradesToSinglePath(t *testing.T) {
	eng := sim.NewEngine(1)
	p1 := makePath(eng, "p1", 10*netem.Mbps, 10*sim.Millisecond, 50)
	p2 := makePath(eng, "p2", 10*netem.Mbps, 10*sim.Millisecond, 50)
	const segs = 2000
	c := newConn(t, eng, Config{Algorithm: "olia", TransferBytes: segs * 1448}, 1, p1, p2)
	faults.Apply(eng, p2, faults.Outage{Down: 500 * sim.Millisecond}) // never up

	c.Start()
	eng.Run(60 * sim.Second)

	if !c.Done() {
		t.Fatalf("transfer stalled after permanent single-path failure: acked %d bytes", c.AckedBytes())
	}
	if got := c.AckedBytes(); got != segs*1448 {
		t.Errorf("AckedBytes = %d, want exactly %d", got, segs*1448)
	}
	if c.Subflows()[1].State() == tcp.StateActive {
		t.Error("subflow 1 revived through a permanently dead path")
	}
	if st := c.Subflows()[1].Stats(); st.Probes == 0 {
		t.Error("dead subflow never probed for recovery")
	}
}

// Same seed + same fault schedule (including random loss drawn from the
// engine's RNG) must reproduce byte-identical results.
func TestFaultScheduleReproducible(t *testing.T) {
	run := func() (uint64, sim.Time, uint64, uint64) {
		eng := sim.NewEngine(99)
		p1 := makePath(eng, "p1", 10*netem.Mbps, 10*sim.Millisecond, 50)
		p2 := makePath(eng, "p2", 10*netem.Mbps, 30*sim.Millisecond, 50)
		c := MustNew(eng, Config{Algorithm: "dts", TransferBytes: 4000 * 1448}, 1, p1, p2)
		faults.Apply(eng, p2,
			faults.Flap{Start: sim.Second, Period: 3 * sim.Second, DownFor: sim.Second, Count: 3},
			faults.SetLoss{At: 0, Prob: 0.03},
		)
		c.Start()
		eng.Run(120 * sim.Second)
		s1, s2 := c.Subflows()[0].Stats(), c.Subflows()[1].Stats()
		return c.AckedBytes(), c.CompletedAt(), s1.PktsSent + s1.PktsRtx, s2.Timeouts + s2.Probes
	}
	b1, t1, x1, y1 := run()
	b2, t2, x2, y2 := run()
	if b1 != b2 || t1 != t2 || x1 != x2 || y1 != y2 {
		t.Errorf("same seed diverged under fault schedule: (%d,%v,%d,%d) vs (%d,%v,%d,%d)",
			b1, t1, x1, y1, b2, t2, x2, y2)
	}
}

func TestTransferBytesAppLimitedMutuallyExclusive(t *testing.T) {
	eng := sim.NewEngine(1)
	p := makePath(eng, "p", 10*netem.Mbps, sim.Millisecond, 10)
	_, err := New(eng, Config{Algorithm: "lia", TransferBytes: 1 << 20, AppLimited: true}, 1, p)
	if err == nil {
		t.Fatal("New accepted TransferBytes together with AppLimited")
	}
}

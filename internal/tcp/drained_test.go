package tcp

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestDrainedMeansQuiescentForever is the safety half of the recycling
// contract. Whatever the network does to a transfer — random loss in both
// directions, delay drops that let later packets overtake earlier ones, an
// outage — the first instant Drained holds, the subflow is out of the
// simulation for good: ten more simulated seconds move no counter on either
// end and leave the engine empty. Transfers that lost anything simply never
// report drained.
func TestDrainedMeansQuiescentForever(t *testing.T) {
	var drainedRuns, lossyRuns int
	for seed := int64(1); seed <= 300; seed++ {
		eng := sim.NewEngine(seed)
		r := eng.Rand()
		budget := int64(10 + r.Intn(150))
		s, _, p := newTestSubflow(eng, 20*netem.Mbps, 4*sim.Millisecond, 30, budget)
		fwd, rev := p.Forward[0], p.Reverse[0]
		loss := []float64{0, 0, 0.005, 0.03}[r.Intn(4)]
		fwd.SetLossProb(loss)
		rev.SetLossProb(loss)
		// Delay flips in both directions for the first two seconds: every
		// drop from 4 ms to 0.5 ms lets packets overtake the ones already
		// propagating, so ACKs (and segments) arrive out of order.
		for at := sim.Time(r.Intn(3000)) * sim.Microsecond; at < 2*sim.Second; at += sim.Time(1+r.Intn(6)) * sim.Millisecond {
			l, d := fwd, 4*sim.Millisecond
			if r.Intn(2) == 0 {
				l = rev
			}
			if r.Intn(2) == 0 {
				d = 500 * sim.Microsecond
			}
			eng.Schedule(at, func() { l.SetDelay(d) })
		}
		if r.Intn(3) == 0 {
			down := sim.Time(r.Intn(40)) * sim.Millisecond
			eng.Schedule(down, fwd.SetDown)
			eng.Schedule(down+sim.Time(1+r.Intn(30))*sim.Millisecond, fwd.SetUp)
		}
		s.Start()

		drained := false
		for eng.Now() < 30*sim.Second && !drained {
			eng.Run(eng.Now() + sim.Millisecond)
			drained, _ = s.Drained()
		}
		if !drained {
			// Nothing to recycle; the rule must be refusing for a reason
			// it can name.
			if st := s.Stats(); st.PktsRtx == 0 && s.acksIn == s.maxSent && s.state == StateActive {
				t.Fatalf("seed %d: clean, fully acknowledged subflow never drained", seed)
			}
			lossyRuns++
			continue
		}
		drainedRuns++
		if got := int64(s.Stats().PktsAcked); got != budget {
			t.Fatalf("seed %d: drained with %d of %d segments acked", seed, got, budget)
		}
		stats, received, fired := s.Stats(), s.rx.Received(), eng.Processed()
		eng.Run(eng.Now() + 10*sim.Second)
		if s.Stats() != stats || s.rx.Received() != received {
			t.Fatalf("seed %d: subflow advanced after Drained: %+v then %+v", seed, stats, s.Stats())
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events still queued 10 s after Drained (%d fired since)",
				seed, eng.Pending(), eng.Processed()-fired)
		}
		if d, q := s.Drained(); !d || !q {
			t.Fatalf("seed %d: Drained went back to (%v, %v)", seed, d, q)
		}
	}
	if drainedRuns < 50 || lossyRuns < 50 {
		t.Errorf("%d runs drained, %d never did: the population exercises one side only", drainedRuns, lossyRuns)
	}
}

// TestNeverDrained walks the three things that keep a subflow reachable —
// a queued tick, a lost ACK, a retransmission — each on a transfer that is
// complete and, for the last two, in an engine with nothing left to run.
func TestNeverDrained(t *testing.T) {
	t.Run("armed tick", func(t *testing.T) {
		eng := sim.NewEngine(1)
		s, coord, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, 10)
		if d, q := s.Drained(); !d || !q {
			t.Fatalf("unstarted subflow: Drained = (%v, %v), want (true, true)", d, q)
		}
		s.Start()
		if d, q := s.Drained(); d || q {
			t.Fatalf("mid-transfer: Drained = (%v, %v), want (false, false)", d, q)
		}
		eng.Run(100 * sim.Millisecond)
		if coord.acked != 10 || eng.Pending() != 1 {
			t.Fatalf("acked %d, %d events pending; want 10 and the RTO tick", coord.acked, eng.Pending())
		}
		if d, q := s.Drained(); d || !q {
			t.Fatalf("tick queued: Drained = (%v, %v), want (false, true)", d, q)
		}
		eng.Run(2 * sim.Second)
		if d, q := s.Drained(); !d || !q || eng.Pending() != 0 {
			t.Fatalf("tick fired: Drained = (%v, %v) with %d pending, want (true, true) and 0", d, q, eng.Pending())
		}
	})

	t.Run("lost ack", func(t *testing.T) {
		eng := sim.NewEngine(1)
		s, coord, p := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, 10)
		// Ten segments leave back to back; segment i reaches the receiver at
		// 5 ms + (i+1)·1.2 ms and its ACK enters the reverse link at once.
		// Taking that link down around 9.8 ms drops exactly the fourth ACK;
		// the fifth carries the cumulative acknowledgement past it, so the
		// sender never notices and never retransmits.
		rev := p.Reverse[0]
		eng.Schedule(9200*sim.Microsecond, rev.SetDown)
		eng.Schedule(10400*sim.Microsecond, rev.SetUp)
		s.Start()
		eng.Run(10 * sim.Second)
		if coord.acked != 10 || s.Stats().PktsRtx != 0 || rev.OutageDropped() != 1 || eng.Pending() != 0 {
			t.Fatalf("setup: acked %d, rtx %d, ACKs dropped %d, pending %d; want 10, 0, 1, 0",
				coord.acked, s.Stats().PktsRtx, rev.OutageDropped(), eng.Pending())
		}
		if d, q := s.Drained(); d || q {
			t.Errorf("one ACK never came home: Drained = (%v, %v), want (false, false)", d, q)
		}
	})

	t.Run("retransmission", func(t *testing.T) {
		eng := sim.NewEngine(1)
		s, coord, p := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, 40)
		// The first ACKs are back from 11.3 ms on, each releasing two new
		// segments in slow start; an outage then drops what arrives.
		fwd := p.Forward[0]
		eng.Schedule(12*sim.Millisecond, fwd.SetDown)
		eng.Schedule(14*sim.Millisecond, fwd.SetUp)
		s.Start()
		eng.Run(60 * sim.Second)
		if coord.acked != 40 || s.Stats().PktsRtx == 0 || eng.Pending() != 0 {
			t.Fatalf("setup: acked %d, rtx %d, pending %d; want 40, > 0, 0",
				coord.acked, s.Stats().PktsRtx, eng.Pending())
		}
		if d, q := s.Drained(); d || q {
			t.Errorf("retransmitted: Drained = (%v, %v), want (false, false)", d, q)
		}
	})
}

package tcp

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestClosedMeansQuiescentForever is the safety half of the recycling
// contract. Whatever the network does to a transfer — random loss in both
// directions, delay drops that let later packets overtake earlier ones, an
// outage — the first instant Close succeeds, the subflow is out of the
// simulation for good: the engine holds none of its events at once, and ten
// more simulated seconds move no counter on either end. Transfers that lost
// anything are simply never closed.
func TestClosedMeansQuiescentForever(t *testing.T) {
	var closedRuns, lossyRuns int
	for seed := int64(1); seed <= 300; seed++ {
		eng := sim.NewEngine(seed)
		r := eng.Rand()
		budget := int64(10 + r.Intn(150))
		s, _, p := newTestSubflow(eng, 20*netem.Mbps, 4*sim.Millisecond, 30, budget)
		fwd, rev := p.Forward[0], p.Reverse[0]
		loss := []float64{0, 0, 0.005, 0.03}[r.Intn(4)]
		fwd.SetLossProb(loss)
		rev.SetLossProb(loss)
		// The link changes below are the test's own events, not the
		// subflow's: queued counts those not yet fired.
		queued := 0
		schedule := func(at sim.Time, fn func()) {
			queued++
			eng.Schedule(at, func() { queued--; fn() })
		}
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
			schedule(at, func() { l.SetDelay(d) })
		}
		if r.Intn(3) == 0 {
			down := sim.Time(r.Intn(40)) * sim.Millisecond
			schedule(down, fwd.SetDown)
			schedule(down+sim.Time(1+r.Intn(30))*sim.Millisecond, fwd.SetUp)
		}
		s.Start()

		closed := false
		for eng.Now() < 30*sim.Second && !closed {
			eng.Run(eng.Now() + sim.Millisecond)
			closed = Close(s)
		}
		if !closed {
			// Nothing to recycle; the rule must be refusing for a reason
			// it can name.
			if st := s.Stats(); st.PktsRtx == 0 && s.acksIn == s.maxSent && s.state == StateActive {
				t.Fatalf("seed %d: clean, fully acknowledged subflow never closed", seed)
			}
			lossyRuns++
			continue
		}
		closedRuns++
		if got := int64(s.Stats().PktsAcked); got != budget {
			t.Fatalf("seed %d: closed with %d of %d segments acked", seed, got, budget)
		}
		if eng.Pending() != queued {
			t.Fatalf("seed %d: closed, and the engine still holds %d of its events", seed, eng.Pending()-queued)
		}
		stats, received := s.Stats(), s.rx.Received()
		eng.Run(eng.Now() + 10*sim.Second)
		if s.Stats() != stats || s.rx.Received() != received {
			t.Fatalf("seed %d: subflow advanced after Close: %+v then %+v", seed, stats, s.Stats())
		}
		if eng.Pending() != 0 || !Close(s) {
			t.Fatalf("seed %d: 10 s after Close, %d events queued and Close %v", seed, eng.Pending(), Close(s))
		}
	}
	if closedRuns < 50 || lossyRuns < 50 {
		t.Errorf("%d runs closed, %d never did: the population exercises one side only", closedRuns, lossyRuns)
	}
}

// TestNeverDrained walks what Close refuses — a transfer in progress, a lost
// ACK, a retransmission — and what it retires: a settled subflow whose RTO
// tick is still queued, which it unlinks. A refused Close touches nothing.
func TestNeverDrained(t *testing.T) {
	t.Run("armed tick", func(t *testing.T) {
		eng := sim.NewEngine(1)
		s, coord, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, 10)
		if !Close(s) {
			t.Fatal("unstarted subflow: Close refused")
		}
		s.Start()
		if pending := eng.Pending(); Close(s) || eng.Pending() != pending {
			t.Fatalf("mid-transfer: Close = true or touched the queue (%d → %d pending)", pending, eng.Pending())
		}
		eng.Run(100 * sim.Millisecond)
		if coord.acked != 10 || eng.Pending() != 1 {
			t.Fatalf("acked %d, %d events pending; want 10 and the RTO tick", coord.acked, eng.Pending())
		}
		if !Close(s) || eng.Pending() != 0 {
			t.Fatalf("settled with its tick queued: Close refused or left %d pending, want 0", eng.Pending())
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
		if Close(s) {
			t.Error("one ACK never came home, and Close retired the subflow")
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
		if Close(s) {
			t.Error("retransmitted, and Close retired the subflow")
		}
	})
}

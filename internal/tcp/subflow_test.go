package tcp

import (
	"math/rand"
	"slices"
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// stubCoord is a minimal single-subflow coordinator with a configurable
// data budget. Its Views does not allocate, so the allocation tests measure
// only the product hot path, not test scaffolding.
type stubCoord struct {
	alg       core.Algorithm
	sub       *Subflow
	remaining int64 // -1 = unlimited
	sent      int64
	acked     int64
	views     [1]core.View
}

func (c *stubCoord) Alg() core.Algorithm { return c.alg }

func (c *stubCoord) Views() []core.View {
	c.sub.RefreshView(&c.views[0])
	return c.views[:]
}

func (c *stubCoord) Grant(int) bool {
	if c.remaining == 0 {
		return false
	}
	c.sent++
	if c.remaining > 0 {
		c.remaining--
	}
	return true
}

func (c *stubCoord) NoteAcked(_ int, pkts int) { c.acked += int64(pkts) }

func (c *stubCoord) NoteFailed(int, int64) {}

func newTestSubflow(eng *sim.Engine, rate int64, delay sim.Time, qlimit int, budget int64) (*Subflow, *stubCoord, *netem.Path) {
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: rate, Delay: delay, QueueLimit: qlimit})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: rate, Delay: delay, QueueLimit: qlimit})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: budget}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	return s, coord, p
}

func TestSubflowDeliversExactBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	s, coord, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, 50)
	s.Start()
	eng.Run(30 * sim.Second)
	if coord.acked != 50 {
		t.Fatalf("acked %d segments, want 50", coord.acked)
	}
	if s.Inflight() != 0 {
		t.Errorf("Inflight = %d after full delivery, want 0", s.Inflight())
	}
	if got := s.Stats().PktsSent; got != 50 {
		t.Errorf("PktsSent = %d, want exactly 50 (no spurious rtx)", got)
	}
}

func TestSubflowRTTEstimator(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _, p := newTestSubflow(eng, 100*netem.Mbps, 20*sim.Millisecond, 1000, 200)
	s.Start()
	eng.Run(20 * sim.Second)
	base := p.BaseRTT(1500, 52)
	if s.BaseRTT() < base || s.BaseRTT() > base+2*sim.Millisecond {
		t.Errorf("BaseRTT = %v, path floor %v", s.BaseRTT().Duration(), base.Duration())
	}
	if s.SRTT() <= 0 || s.LastRTT() <= 0 {
		t.Error("RTT estimator produced no samples")
	}
}

func TestSubflowRecoversFromTotalBlackout(t *testing.T) {
	// Kill the forward link with 100% loss for a while: the subflow must
	// back off (few timeouts, not hundreds) and then recover go-back-N
	// style when the link heals.
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond, QueueLimit: 100, LossProb: 1})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s

	// Heal the link at t=5s (LossProb is internal; rebuild-free healing via
	// SetPrice isn't possible, so use a second scenario: start broken, heal
	// by swapping the path's forward link is not supported either — use
	// the loss probability through a fresh link is simplest: instead run
	// blackout only, then check backoff kept timeouts modest).
	s.Start()
	eng.Run(10 * sim.Second)
	st := s.Stats()
	if st.Timeouts == 0 {
		t.Fatal("no timeouts during blackout")
	}
	if st.Timeouts > 12 {
		t.Errorf("timeouts = %d in 10 s; exponential backoff should cap retries", st.Timeouts)
	}
	if coord.acked != 0 {
		t.Errorf("acked %d segments through a dead link", coord.acked)
	}
}

// TestRTOBackoffClampedAtMax pins the clamp on the backed-off timeout: at
// backoff 6 the initial 1 s RTO doubles to 64 s, past rtoMax, and at a shift
// that overflows sim.Time the product turns negative; both arm the deadline
// at exactly now + rtoMax.
func TestRTOBackoffClampedAtMax(t *testing.T) {
	for _, backoff := range []uint{6, 63} {
		eng := sim.NewEngine(1)
		s, _, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, -1)
		s.nextSeq, s.maxSent = 10, 10 // data in flight, so the timer arms
		eng.Run(3 * sim.Second)
		s.backoff = backoff
		s.restartRTO()
		if got, want := s.rtoTimer.At(), eng.Now()+rtoMax; got != want {
			t.Errorf("backoff %d: RTO deadline %v, want now + rtoMax = %v", backoff, got.Duration(), want.Duration())
		}
	}
}

func TestSubflowFailsAfterKTimeoutsAndRevives(t *testing.T) {
	// Black out the forward direction; the subflow must declare failure
	// after exactly failTimeouts RTO episodes, switch to backed-off
	// probing, and revive once the path heals.
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond, LossProb: 1})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	s.Start()

	// rtoInit=1s, so episodes at t=1,3,7 and failure at t=7.
	eng.Run(7500 * sim.Millisecond)
	st := s.Stats()
	if st.Timeouts != 3 || st.Fails != 1 {
		t.Fatalf("Timeouts=%d Fails=%d at t=7.5s, want 3 and 1", st.Timeouts, st.Fails)
	}
	if s.State() == StateActive {
		t.Fatal("subflow still active after failTimeouts consecutive RTOs")
	}
	if s.Inflight() != 0 {
		t.Errorf("Inflight = %d while dead, want 0 (send point rewound)", s.Inflight())
	}

	// Probes at t=8,10,14,... Heal at t=11: the t=14 probe gets through.
	eng.Schedule(11*sim.Second, func() { fwd.SetLossProb(0) })
	eng.Run(20 * sim.Second)
	st = s.Stats()
	if st.Probes < 2 {
		t.Errorf("Probes = %d, want >= 2 (t=8 and t=10 at least)", st.Probes)
	}
	if st.Revivals != 1 || s.State() != StateActive {
		t.Fatalf("Revivals=%d state=%v after heal, want 1 and active", st.Revivals, s.State())
	}
	if coord.acked == 0 {
		t.Error("no segments acked after revival")
	}
	tl := s.Transitions()
	if tl.Len() < 3 {
		t.Fatalf("transitions = %v, want dead→probing→active", tl.Events)
	}
	want := []string{"dead", "probing", "active"}
	for i, w := range want {
		if tl.Events[i].Label != w {
			t.Errorf("transition %d = %q, want %q", i, tl.Events[i].Label, w)
		}
	}
}

func TestSubflowPostRTORewindRecovers(t *testing.T) {
	// Drop a long stretch by overflowing a tiny queue with a window burst,
	// then verify delivery completes quickly (the go-back-N rewind), with
	// the receiver's buffered tail acknowledged in jumps rather than
	// resent one-per-RTO.
	eng := sim.NewEngine(1)
	s, coord, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 8, 400)
	s.Start()
	eng.Run(30 * sim.Second)
	if coord.acked != 400 {
		t.Fatalf("acked %d of 400 segments; recovery stalled (timeouts=%d)",
			coord.acked, s.Stats().Timeouts)
	}
}

func TestSubflowOutstandingExcludesSacked(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, -1)
	// Simulate SACK state directly.
	s.nextSeq = 20
	s.maxSent = 20
	s.cumAck = 5
	s.noteSack(7)
	s.noteSack(8)
	s.noteSack(8) // duplicate must not double-count
	if got := s.Outstanding(); got != 13 {
		t.Errorf("Outstanding = %d, want 15 inflight - 2 sacked = 13", got)
	}
	if got := s.Inflight(); got != 15 {
		t.Errorf("Inflight = %d, want 15", got)
	}
}

func TestSubflowPruneBelow(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _, _ := newTestSubflow(eng, 10*netem.Mbps, 5*sim.Millisecond, 100, -1)
	for _, seq := range []int64{3, 5, 9, 12} {
		s.noteSack(seq)
	}
	s.noteRetransmitted(4)
	s.noteRetransmitted(10)
	s.pruneBelow(9)
	if len(s.sacked) != 2 || s.sacked[0] != 9 || s.sacked[1] != 12 {
		t.Errorf("sacked after prune = %v, want [9 12]", s.sacked)
	}
	if s.wasRetransmitted(4) {
		t.Error("retransmitted entry below prune point survived")
	}
	if !s.wasRetransmitted(10) {
		t.Error("retransmitted entry above prune point was dropped")
	}
}

// TestSackScoreboardMatchesInsertThenPrune plays the receiver through a loss
// episode — drops, late arrivals, duplicates — ACK by ACK, and holds the
// SACK scoreboard after every ACK to the rule it replaced: record the
// ACK's SackSeq unless it lies below the old cumulative ACK, then prune
// below the new one.
func TestSackScoreboardMatchesInsertThenPrune(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _, p := newTestSubflow(eng, 10*netem.Mbps, sim.Millisecond, 100, -1)
	p.Forward[0].SetDown() // the test is the receiver: the data itself is dropped
	s.Start()
	rng := rand.New(rand.NewSource(5))
	var (
		rcvNext, next int64
		ooo           = map[int64]bool{}
		late          []int64 // lost segments, arriving out of order later
		covered       int     // ACKs whose own cumulative ACK covers SackSeq
	)
	for i := 0; i < 5000; i++ {
		var seq int64
		switch {
		case next < s.MaxSent() && rng.Intn(4) != 0:
			seq, next = next, next+1
			if rng.Intn(8) == 0 {
				late = append(late, seq)
				continue
			}
		case len(late) > 0:
			j := rng.Intn(len(late))
			seq = late[j]
			late = slices.Delete(late, j, j+1)
		case rcvNext > 0:
			seq = rng.Int63n(rcvNext) // a duplicate of delivered data
		default:
			continue
		}
		if seq == rcvNext {
			for rcvNext++; ooo[rcvNext]; rcvNext++ {
				delete(ooo, rcvNext)
			}
		} else if seq > rcvNext {
			ooo[seq] = true
		}

		want := slices.Clone(s.sacked)
		if seq >= s.cumAck {
			if k, found := slices.BinarySearch(want, seq); !found {
				want = slices.Insert(want, k, seq)
			}
		}
		if rcvNext > s.cumAck {
			k, _ := slices.BinarySearch(want, rcvNext)
			want = want[k:]
		}
		if seq < rcvNext {
			covered++
		}
		ack := netem.NewPacket()
		ack.IsAck, ack.Ack, ack.SackSeq = true, rcvNext, seq
		s.Receive(ack)
		if !slices.Equal(s.sacked, want) {
			t.Fatalf("ACK %d (ack %d, sack %d): scoreboard %v, insert-then-prune gives %v", i, rcvNext, seq, s.sacked, want)
		}
	}
	if st := s.Stats(); st.LossEvents == 0 || covered == 0 || rcvNext < 1000 {
		t.Errorf("the episode missed a case: %d loss events, %d covered SACKs, %d delivered", st.LossEvents, covered, rcvNext)
	}
}

func TestReceiverOutOfOrderBuffering(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _, p := newTestSubflow(eng, 10*netem.Mbps, sim.Millisecond, 100, 0)
	rx := s.rx

	deliver := func(seq int64) {
		pkt := netem.NewPacket()
		pkt.Seq = seq
		pkt.Size = 1500
		pkt.SetRoute(nil, rx) // loopback delivery straight to the receiver
		pkt.Send()
	}
	// 0 arrives, then 2,3 (gap at 1), then 1 fills the gap.
	deliver(0)
	if rx.rcvNext != 1 {
		t.Fatalf("rcvNext = %d after in-order arrival, want 1", rx.rcvNext)
	}
	deliver(2)
	deliver(3)
	if rx.rcvNext != 1 {
		t.Fatalf("rcvNext = %d with a gap, want still 1", rx.rcvNext)
	}
	if rx.OutOfOrderPeak() != 2 {
		t.Errorf("ooo peak = %d, want 2", rx.OutOfOrderPeak())
	}
	deliver(1)
	if rx.rcvNext != 4 {
		t.Fatalf("rcvNext = %d after gap filled, want 4 (drained buffer)", rx.rcvNext)
	}
	if rx.Received() != 4 {
		t.Errorf("Received = %d, want 4", rx.Received())
	}
	_ = p
	eng.Run(eng.Now() + sim.Second) // let the generated ACKs drain back
}

// TestStrayPacketsReturnToPool hands each end the kind of packet it does not
// consume — an ACK to the receiver, a data packet to the sender — and checks
// that both drop it back into its pool instead of leaking it.
func TestStrayPacketsReturnToPool(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _, _ := newTestSubflow(eng, 10*netem.Mbps, sim.Millisecond, 100, 0)
	for _, tc := range []struct {
		name  string
		isAck bool
		dst   netem.Endpoint
	}{
		{"ACK to the receiver", true, s.rx},
		{"data to the sender", false, s},
	} {
		var pool netem.Pool
		pool.Get().Release() // one packet parked, which the stray one is drawn from
		pkt := pool.Get()
		pkt.IsAck = tc.isAck
		pkt.SetRoute(nil, tc.dst)
		pkt.Send()
		if got := pool.FreeLen(); got != 1 {
			t.Errorf("%s: pool holds %d packets after the stray one, want 1", tc.name, got)
		}
	}
}

func TestHystartCanBeDisabled(t *testing.T) {
	run := func(disable bool) float64 {
		eng := sim.NewEngine(1)
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 50 * netem.Mbps, Delay: 20 * sim.Millisecond, QueueLimit: 2000})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 50 * netem.Mbps, Delay: 20 * sim.Millisecond})
		p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
		coord := &stubCoord{alg: core.NewReno(), remaining: -1}
		s := NewSubflow(eng, Config{DisableHystart: disable}, coord, 1, 0, p)
		coord.sub = s
		s.Start()
		eng.Run(3 * sim.Second)
		return s.Cwnd()
	}
	withGuard, without := run(false), run(true)
	// Without the delay guard, slow start keeps doubling into the huge
	// queue and the window overshoots far beyond the guarded run.
	if without <= withGuard {
		t.Errorf("cwnd without HyStart (%.0f) not above guarded (%.0f)", without, withGuard)
	}
}

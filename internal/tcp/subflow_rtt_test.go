package tcp

import (
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// quietSubflow builds a subflow that never sends on its own: it has no data
// budget, and craftAck stops the RTO deadline after every ACK it delivers, so
// hand-crafted ACKs fully control the estimator (no go-back-N resends sneak
// real traffic — and real echoes — onto the path).
func quietSubflow(eng *sim.Engine) (*Subflow, *netem.Path) {
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond, QueueLimit: 100})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond, QueueLimit: 100})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: 0}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	return s, p
}

// craftAck delivers a hand-built cumulative ACK straight to the subflow and
// then stops its RTO deadline, which the ACK re-armed.
func craftAck(s *Subflow, p *netem.Path, ack int64, echoedAt sim.Time) {
	pk := p.Pool().Get()
	pk.IsAck = true
	pk.Ack = ack
	pk.SackSeq = ack - 1
	pk.Size = 52
	pk.EchoedAt = echoedAt
	s.Receive(pk)
	s.rtoTimer.Stop()
}

// TestKarnSkipsAmbiguousSample is the failing-before regression for the
// Karn fix: a cumulative ACK that covers a retransmitted segment carries an
// ambiguous timestamp (it may echo the first transmission), and sampling it
// used to blow SRTT and the RTO up by the whole loss-episode duration.
func TestKarnSkipsAmbiguousSample(t *testing.T) {
	eng := sim.NewEngine(1)
	s, p := quietSubflow(eng)
	// Pretend ten segments are in flight.
	s.nextSeq, s.maxSent = 10, 10

	// t=20ms: a clean ACK of segment 0 (sent at t=0) → one exact 20ms
	// sample; SRTT pins to 20ms.
	eng.Schedule(20*sim.Millisecond, func() { craftAck(s, p, 1, 0) })
	// Segment 1 is retransmitted during a loss episode, and the timer has
	// backed off meanwhile.
	eng.Schedule(21*sim.Millisecond, func() {
		s.noteRetransmitted(1)
		s.backoff = 3
	})
	// t=5s: the cumulative ACK finally covers the retransmitted segment,
	// echoing the FIRST transmission's timestamp — a 5-second "sample".
	eng.Schedule(5*sim.Second, func() { craftAck(s, p, 2, 0) })
	eng.Run(5500 * sim.Millisecond)

	if got := s.SRTT(); got != 20*sim.Millisecond {
		t.Errorf("SRTT = %v after ambiguous ACK, want 20ms untouched (Karn)", got.Duration())
	}
	if got := s.LastRTT(); got != 20*sim.Millisecond {
		t.Errorf("LastRTT = %v, want 20ms: the ambiguous sample must be skipped", got.Duration())
	}
	if got := s.RTO(); got != rtoMin {
		t.Errorf("RTO = %v recomputed from an ambiguous sample, want untouched rtoMin=200ms", got.Duration())
	}
	// RFC 6298 5.7: only a VALID sample may reset the timer backoff; a bare
	// cumulative-ACK advance (this one was Karn-suppressed) must not.
	if s.backoff != 3 {
		t.Errorf("backoff = %d after Karn-suppressed ACK, want 3 preserved", s.backoff)
	}
}

// TestValidSampleResetsBackoff is the positive half of RFC 6298 5.7: the
// first unambiguous sample after a loss episode resets the exponential
// backoff and recomputes the RTO.
func TestValidSampleResetsBackoff(t *testing.T) {
	eng := sim.NewEngine(1)
	s, p := quietSubflow(eng)
	s.nextSeq, s.maxSent = 10, 10
	s.backoff = 4

	// The ACK covers only fresh data (nothing in s.retransmitted below it):
	// a clean 20ms sample.
	eng.Schedule(5*sim.Second, func() { craftAck(s, p, 1, 5*sim.Second-20*sim.Millisecond) })
	eng.Run(6 * sim.Second)

	if s.backoff != 0 {
		t.Errorf("backoff = %d after a valid RTT sample, want 0", s.backoff)
	}
	if got := s.SRTT(); got != 20*sim.Millisecond {
		t.Errorf("SRTT = %v, want 20ms", got.Duration())
	}
	if got := s.RTO(); got != rtoMin {
		t.Errorf("RTO = %v, want clamped to rtoMin=200ms", got.Duration())
	}
}

// TestRTOBackoffSequence pins the RFC 6298 §5 worked sequence end to end:
// consecutive timeouts double the armed timeout 1s → 2s → 4s (rtoInit with
// no samples), the failTimeouts-th episode declares the path dead, and once
// the path answers, the next valid sample collapses the backoff to the
// freshly computed RTO.
func TestRTOBackoffSequence(t *testing.T) {
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond, LossProb: 1})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	s.Start()

	// With rtoInit=1s and every packet lost, timeouts land at t=1,3,7s —
	// the doubling staircase — and the third kills the path. Record each
	// episode's instant.
	var at []sim.Time
	want := []sim.Time{sim.Second, 3 * sim.Second, 7 * sim.Second}
	var poll func()
	poll = func() {
		if int(s.Stats().Timeouts) > len(at) {
			at = append(at, eng.Now())
		}
		if eng.Now() < 8500*sim.Millisecond {
			eng.ScheduleAfter(sim.Millisecond, poll)
		}
	}
	eng.Schedule(0, poll)
	eng.Run(8500 * sim.Millisecond)

	if len(at) != len(want) {
		t.Fatalf("observed timeouts at %v, want exactly %v", at, want)
	}
	for i, w := range want {
		if at[i] != w {
			t.Errorf("timeout %d at %v, want %v (exponential backoff broken)", i, at[i].Duration(), w.Duration())
		}
	}
	if st := s.Stats(); st.Fails != 1 || s.State() == StateActive {
		t.Fatalf("Fails=%d state=%v after %d timeouts, want 1 and dead", st.Fails, s.State(), len(want))
	}

	// Now the path "heals" (hand-delivered ACKs; the link stays black).
	// The first ACK covers the t=8s probe, a retransmission, so Karn keeps
	// it from sampling — backoff must survive it — and it revives the
	// subflow.
	if s.backoff == 0 {
		t.Fatal("backoff did not accumulate during the blackout")
	}
	backoffBefore := s.backoff
	craftAck(s, p, s.MaxSent(), 0)
	if s.State() != StateActive {
		t.Fatalf("state = %v after the path answered, want active", s.State())
	}
	if s.backoff != backoffBefore {
		t.Errorf("backoff = %d after ambiguous post-blackout ACK, want %d preserved", s.backoff, backoffBefore)
	}
	// The revived subflow sent fresh data from the cumulative ACK, so the
	// next ACK covers no retransmission: a valid sample, and the backoff
	// collapses.
	if s.NextSeq() <= s.Acked() {
		t.Fatal("no fresh data sent after the recovery ACK")
	}
	craftAck(s, p, s.Acked()+1, eng.Now()-20*sim.Millisecond)
	if s.backoff != 0 {
		t.Errorf("backoff = %d after valid sample, want 0", s.backoff)
	}
	if got := s.RTO(); got != rtoMin {
		t.Errorf("RTO = %v after 20ms sample, want rtoMin=200ms", got.Duration())
	}
}

// TestBaseRTTWindowExpiresStaleFloor is the failing-before regression for
// the windowed min-RTT: when the path's propagation delay ramps up (fault
// injection, handover), the lifetime-minimum baseRTT used to pin
// delay-based algorithms to the old floor forever. With the window, the
// floor must follow the path within one window length.
func TestBaseRTTWindowExpiresStaleFloor(t *testing.T) {
	eng := sim.NewEngine(1)
	// A short queue (20 packets ≈ 4.8ms at 50 Mbps) keeps queueing delay
	// small next to the 10ms propagation floor, so the windowed minimum
	// tracks propagation, not standing queue.
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 50 * netem.Mbps, Delay: 5 * sim.Millisecond, QueueLimit: 20})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 50 * netem.Mbps, Delay: 5 * sim.Millisecond, QueueLimit: 20})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	s.Start()

	// Let the estimator learn the 10ms floor, then ramp the propagation
	// delay to 5× at t=10s (a handover to a far-away gateway).
	eng.Schedule(10*sim.Second, func() {
		fwd.SetDelay(25 * sim.Millisecond)
		rev.SetDelay(25 * sim.Millisecond)
	})
	var baseBefore sim.Time
	eng.Schedule(10*sim.Second, func() { baseBefore = s.BaseRTT() })
	eng.Run(25 * sim.Second)

	if baseBefore <= 0 || baseBefore > 15*sim.Millisecond {
		t.Fatalf("pre-ramp BaseRTT = %v, want ≈10ms floor", baseBefore.Duration())
	}
	// 25 s in, every observation of the old floor is younger than the
	// 30 s window: it still holds.
	if got := s.BaseRTT(); got != baseBefore {
		t.Errorf("BaseRTT = %v inside the window, want the pre-ramp %v", got.Duration(), baseBefore.Duration())
	}
	// Two windows after the ramp the stale 10ms floor must have expired;
	// with the old lifetime minimum BaseRTT would still equal baseBefore.
	eng.Run(10*sim.Second + 2*minRTTWindow)
	if got := s.BaseRTT(); got < 50*sim.Millisecond {
		t.Errorf("BaseRTT = %v long after the delay ramp, want ≥ the new 50ms floor (stale floor never expired)", got.Duration())
	}
}

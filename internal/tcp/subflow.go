package tcp

import (
	"sort"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Coordinator is the connection-level coordination a subflow needs: access
// to the shared congestion-control algorithm and the sibling subflows'
// state, admission of new data (finite transfers, connection-level receive
// window), and progress notifications.
type Coordinator interface {
	// Alg returns the connection's congestion-control algorithm.
	Alg() core.Algorithm
	// Views returns the current state of every subflow, index = subflow ID,
	// each with Now set to the simulation clock.
	Views() []core.View
	// AllowSend reports whether subflow r may put one new segment in
	// flight (data remains and the connection-level window has room).
	AllowSend(r int) bool
	// NoteSend records that subflow r sent one new segment.
	NoteSend(r int)
	// NoteAcked records that pkts segments of subflow r were newly acked.
	NoteAcked(r int, pkts int)
	// NoteFailed records that subflow r declared its path dead with unacked
	// segments still outstanding; the connection re-injects that much data
	// onto surviving subflows.
	NoteFailed(r int, unacked int64)
	// NoteRevived records that subflow r's path healed and it resumed.
	NoteRevived(r int)
}

// State is the failover state of a subflow.
type State int

const (
	// StateActive is normal operation.
	StateActive State = iota
	// StateDead means the path failed (FailTimeouts consecutive RTO
	// episodes with no cumulative-ACK progress); the subflow is frozen and
	// its unacked data has been handed back for re-injection.
	StateDead
	// StateProbing means the subflow is dead but has begun sending
	// exponentially backed-off probe retransmissions to detect healing.
	StateProbing
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDead:
		return "dead"
	case StateProbing:
		return "probing"
	}
	return "unknown"
}

// Stats are cumulative subflow counters.
type Stats struct {
	PktsSent    uint64 // new segments (excluding retransmissions)
	PktsRtx     uint64
	PktsAcked   uint64
	LossEvents  uint64 // fast-retransmit episodes
	Timeouts    uint64
	RoundTrips  uint64
	MarkedAcked uint64 // ECE-carrying ACK arrivals
	Fails       uint64 // path-failure declarations (K consecutive RTOs)
	Probes      uint64 // probe segments sent while dead
	Revivals    uint64 // dead → active transitions
}

// Subflow is one TCP sender over one path, with selective acknowledgement:
// the receiver reports each arriving segment, so the sender retransmits
// exactly the holes (RFC 6675-style pipe accounting) and recovers multiple
// losses within one round trip, as SACK-enabled kernels do. It implements
// netem.Endpoint to consume ACKs coming back over the path's reverse
// direction.
type Subflow struct {
	eng   *sim.Engine
	cfg   Config
	coord Coordinator
	id    int
	flow  uint64
	path  *netem.Path
	rx    *Receiver

	cwnd     float64
	ssthresh float64
	nextSeq  int64
	maxSent  int64 // highest nextSeq reached; sends below it are re-sends
	cumAck   int64
	acksIn   int64 // ACK arrivals, duplicates included; see Close

	// sacked holds, sorted, the segments above cumAck the receiver has
	// reported; retransmitted holds, sorted, the holes already resent this
	// episode (the scan cursor makes inserts tail-appends in practice);
	// scanFrom remembers how far the hole scan has progressed, so each
	// sequence number is examined once per episode rather than once per
	// ACK (heavy-loss periods would otherwise make recovery quadratic).
	sacked        []int64
	retransmitted []int64
	scanFrom      int64

	inRecovery bool
	recover    int64

	// rtt is the shared estimator (smoothed RTT, mean deviation, windowed
	// min); the subflow enforces Karn's rule before feeding it samples.
	// rto caches the RFC 6298 timeout recomputed on every accepted sample;
	// backoff is the exponential timer backoff, reset only by a valid
	// sample (RFC 6298, 5.7), never by a bare cumulative-ACK advance.
	rtt     RTTStats
	rto     sim.Time
	backoff uint

	// rtoTimer is the retransmission timer, set while data is in flight.
	// Every cumulative ACK moves it later, which costs no queue operation:
	// its queued tick chases the deadline when it fires (sim.Deadline).
	rtoTimer sim.Deadline

	// Failover: consecRTO counts RTO episodes since the last cumulative-ACK
	// advance; at cfg.FailTimeouts the subflow freezes (state leaves
	// StateActive) and probeTimer sends a probe every probeIval, doubling up
	// to RTOMax, until an ACK revives the subflow and stops it.
	state       State
	consecRTO   int
	probeIval   sim.Time
	probeTimer  sim.Deadline
	transitions Timeline

	price    float64
	roundEnd int64

	// view caches the last snapshot handed to the algorithm; every mutation
	// of a field View exposes marks it dirty, so the per-ack Views() fan-out
	// rebuilds only subflows that actually changed (the float conversions in
	// the rebuild dominate the per-ack cost otherwise).
	view      core.View
	viewDirty bool

	stats Stats
}

// NewSubflow wires a sender over path for subflow id of coordinator coord.
// The matching receiver is created automatically at the far end.
func NewSubflow(eng *sim.Engine, cfg Config, coord Coordinator, flow uint64, id int, path *netem.Path) *Subflow {
	s := new(Subflow)
	s.Reset(eng, cfg, coord, flow, id, path)
	return s
}

// Reset rebuilds the subflow in place as NewSubflow would build it: every
// field is rewritten from the arguments, and only what is expensive to make
// and carries no state survives — the two deadlines' closures (rebound only
// for another engine), the receiver object, and the backing arrays of the
// SACK scoreboard and the reordering buffer (emptied). NewSubflow is Reset on
// a blank subflow, so there is one construction path. Call it only on a
// subflow that Close retired: a packet the simulation still holds of the old
// incarnation would reach the new one.
func (s *Subflow) Reset(eng *sim.Engine, cfg Config, coord Coordinator, flow uint64, id int, path *netem.Path) {
	cfg = cfg.withDefaults()
	rx, rtoTimer, probeTimer := s.rx, s.rtoTimer, s.probeTimer
	rtoTimer.Stop()
	probeTimer.Stop()
	if rx == nil {
		rx = new(Receiver)
	}
	if s.eng != eng {
		rtoTimer, probeTimer = sim.MakeDeadline(eng, s.onRTO), sim.MakeDeadline(eng, s.probe)
	}
	*rx = Receiver{eng: eng, sub: s, ooo: rx.ooo[:0]}
	*s = Subflow{
		eng:           eng,
		cfg:           cfg,
		coord:         coord,
		id:            id,
		flow:          flow,
		path:          path,
		rx:            rx,
		cwnd:          cfg.InitialCwnd,
		ssthresh:      1 << 30,
		sacked:        s.sacked[:0],
		retransmitted: s.retransmitted[:0],
		rto:           cfg.RTOInit,
		rtoTimer:      rtoTimer,
		probeTimer:    probeTimer,
		viewDirty:     true,
	}
	if w := cfg.MinRTTWindow; w > 0 {
		s.rtt.SetWindow(w)
	}
}

// Close retires subflows that are done together, as one connection's are. If
// every one is settled it stops their deadlines, so that none of them owns an
// event, and returns true: nothing in the simulation reaches them any more,
// and each may be Reset. Otherwise it touches none of them and returns false.
//
// A subflow is settled when no packet names it and none ever will unless it
// is made to send again: it never retransmitted and never failed, so every
// segment went out exactly once and is answered by at most one ACK, and as
// many ACKs came home as segments went out — nothing was lost in either
// direction, nothing is in flight, whatever faults dropped, delayed or
// reordered on the way. A subflow with a retransmission, a lost segment or
// ACK, or a failover behind it is never settled again; the rule errs towards
// "reachable".
func Close(subs ...*Subflow) bool {
	for _, s := range subs {
		if s.state != StateActive || s.stats.PktsRtx != 0 || s.stats.Fails != 0 || s.acksIn != s.maxSent {
			return false
		}
	}
	for _, s := range subs {
		s.rtoTimer.Stop()
		s.probeTimer.Stop()
	}
	return true
}

// Start begins transmitting; call once after the connection is assembled.
func (s *Subflow) Start() { s.trySend() }

// ID returns the subflow index within its connection.
func (s *Subflow) ID() int { return s.id }

// Path returns the subflow's route.
func (s *Subflow) Path() *netem.Path { return s.path }

// Stats returns a copy of the subflow's counters.
func (s *Subflow) Stats() Stats { return s.stats }

// Config returns the subflow's transport parameters with defaults applied.
func (s *Subflow) Config() Config { return s.cfg }

// MSS returns the payload bytes per segment.
func (s *Subflow) MSS() int { return s.cfg.MSS }

// Cwnd returns the current congestion window in segments.
func (s *Subflow) Cwnd() float64 { return s.cwnd }

// SSThresh returns the current slow-start threshold in segments.
func (s *Subflow) SSThresh() float64 { return s.ssthresh }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Subflow) SRTT() sim.Time { return s.rtt.SmoothedRTT() }

// BaseRTT returns the minimum RTT over the configured min-RTT window
// (the lifetime minimum when the window is disabled).
func (s *Subflow) BaseRTT() sim.Time { return s.rtt.MinRTT() }

// LastRTT returns the latest RTT sample.
func (s *Subflow) LastRTT() sim.Time { return s.rtt.LatestRTT() }

// RTTStats exposes the subflow's estimator (read-only use).
func (s *Subflow) RTTStats() *RTTStats { return &s.rtt }

// RTO returns the current retransmission timeout before backoff.
func (s *Subflow) RTO() sim.Time { return s.rto }

// Inflight returns the segments sent and not yet cumulatively acked.
func (s *Subflow) Inflight() int64 { return s.nextSeq - s.cumAck }

// Outstanding returns the RFC 6675 pipe estimate: sent segments neither
// cumulatively acked nor selectively acknowledged. Only SACKs below the
// current send point count — after a post-RTO rewind, stale SACKs above
// it must not drive the pipe negative.
func (s *Subflow) Outstanding() int64 {
	n := sort.Search(len(s.sacked), func(i int) bool { return s.sacked[i] >= s.nextSeq })
	return s.nextSeq - s.cumAck - int64(n)
}

// Acked returns the cumulative acknowledged segment count.
func (s *Subflow) Acked() int64 { return s.cumAck }

// NextSeq returns the next sequence number the subflow will transmit.
// NextSeq below MaxSent means rolled-back data is being resent.
func (s *Subflow) NextSeq() int64 { return s.nextSeq }

// MaxSent returns the highest sequence number ever handed to the path —
// the count of distinct segments this subflow has been charged for via
// Coordinator.NoteSend (rewinds after an RTO or path failure lower NextSeq
// but never MaxSent).
func (s *Subflow) MaxSent() int64 { return s.maxSent }

// InRecovery reports whether a loss episode is in progress.
func (s *Subflow) InRecovery() bool { return s.inRecovery }

// State returns the failover state (active, dead or probing).
func (s *Subflow) State() State { return s.state }

// Transitions returns the recorded failover state changes, in order. The
// timeline is empty for a subflow that never failed.
func (s *Subflow) Transitions() *Timeline { return &s.transitions }

// View snapshots the subflow state for the congestion-control algorithm.
// The snapshot is cached and rebuilt only after one of its inputs changed.
func (s *Subflow) View() core.View {
	if s.viewDirty {
		s.view = s.buildView()
		// Until the first RTT sample the snapshot substitutes the path's
		// live BaseRTT, which fault injection can change under us — keep
		// rebuilding until a sample pins the view to subflow state only.
		s.viewDirty = !s.rtt.HasSample()
	}
	return s.view
}

func (s *Subflow) buildView() core.View {
	srtt := s.rtt.SmoothedRTT()
	if !s.rtt.HasSample() {
		// Before any sample, present the path's unloaded RTT so coupled
		// algorithms have something sane to divide by.
		srtt = s.path.BaseRTT(s.cfg.WireSize(), s.cfg.AckBytes)
	}
	last := s.rtt.LatestRTT()
	if last == 0 {
		last = srtt
	}
	base := s.rtt.MinRTT()
	if base == 0 {
		base = srtt
	}
	return core.View{
		Cwnd:        s.cwnd,
		SSThresh:    s.ssthresh,
		SRTT:        srtt.Seconds(),
		LastRTT:     last.Seconds(),
		BaseRTT:     base.Seconds(),
		Price:       s.price,
		InSlowStart: s.cwnd < s.ssthresh,
	}
}

// trySend transmits while the congestion window allows: first any rolled-
// back data below maxSent (retransmissions — already charged to the
// connection's budget), then new segments as long as the coordinator
// grants them.
func (s *Subflow) trySend() {
	if s.state != StateActive {
		return
	}
	for float64(s.Outstanding()) < s.cwnd {
		if s.nextSeq < s.maxSent {
			s.sendSeq(s.nextSeq, true)
			s.nextSeq++
			continue
		}
		if !s.coord.AllowSend(s.id) {
			break
		}
		s.sendSeq(s.nextSeq, false)
		s.nextSeq++
		s.maxSent = s.nextSeq
		s.stats.PktsSent++
		s.coord.NoteSend(s.id)
	}
	s.ensureRTO()
}

func (s *Subflow) sendSeq(seq int64, rtx bool) {
	p := s.path.Pool().Get()
	p.Flow = s.flow
	p.Subflow = int32(s.id)
	p.Seq = seq
	p.Size = int32(s.cfg.WireSize())
	p.SentAt = s.eng.Now()
	p.SetRoute(s.path.Forward, s.rx)
	p.Send()
	if rtx {
		// Single chokepoint for Karn's rule: every retransmission — SACK
		// holes, post-RTO go-back-N resends, probes — is recorded so the
		// ACK that covers it is recognized as ambiguous and not sampled.
		s.noteRetransmitted(seq)
		s.stats.PktsRtx++
	}
}

// ensureRTO starts the retransmission timer if it is not running (RFC
// 6298: start on sending data with no timer pending). It never pushes an
// existing deadline — in particular, duplicate ACKs must not keep a stuck
// flow's timer from ever firing.
func (s *Subflow) ensureRTO() {
	if s.Inflight() <= 0 || s.rtoTimer.At() == 0 {
		s.restartRTO()
	}
}

// restartRTO re-bases the deadline; called when the cumulative ACK
// advances (and after a timeout, with backoff applied).
func (s *Subflow) restartRTO() {
	if s.Inflight() <= 0 {
		s.rtoTimer.Clear()
		return
	}
	d := s.rto << s.backoff
	if d > s.cfg.RTOMax || d < s.rto {
		// Clamp the exponential backoff (and guard the shift against
		// overflow, which would make d negative).
		d = s.cfg.RTOMax
	}
	s.rtoTimer.Set(s.eng.Now() + d)
}

// onRTO is the retransmission timeout, run by rtoTimer at its deadline.
func (s *Subflow) onRTO() {
	if s.state != StateActive || s.Inflight() <= 0 {
		return
	}
	s.stats.Timeouts++
	s.consecRTO++
	if !s.cfg.DisableFailover && s.consecRTO >= s.cfg.FailTimeouts {
		s.fail()
		return
	}
	s.ssthresh = max(s.cwnd/2, 2)
	s.cwnd = s.cfg.MinCwnd
	s.viewDirty = true
	s.inRecovery = false
	if s.backoff < 6 {
		s.backoff++
	}
	s.notePath(core.PathTimeout)
	// Classic post-RTO behaviour: discard the scoreboard, roll the send
	// point back to the cumulative ACK and slow-start from there. Without
	// this, the surviving holes of a mass-loss burst keep inflating the
	// pipe estimate and recovery crawls at one segment per timeout.
	// Receiver-buffered runs make the cumulative ACK jump forward, so
	// little already-delivered data is actually resent.
	s.retransmitted = s.retransmitted[:0]
	s.sacked = s.sacked[:0]
	s.scanFrom = s.cumAck
	s.nextSeq = s.cumAck
	s.trySend()
	s.restartRTO()
}

// fail declares the path dead after cfg.FailTimeouts back-to-back RTO
// episodes: freeze the window, clear the retransmission timer, roll the
// send point back to the cumulative ACK, hand the unacked range to the
// connection for re-injection elsewhere, and start probing for recovery.
func (s *Subflow) fail() {
	unacked := s.maxSent - s.cumAck
	s.state = StateDead
	s.stats.Fails++
	s.transitions.Add(s.eng.Now(), "dead")
	s.rtoTimer.Clear()
	s.inRecovery = false
	s.retransmitted = s.retransmitted[:0]
	s.sacked = s.sacked[:0]
	s.scanFrom = s.cumAck
	// Rewind so the frozen range no longer counts as inflight; the
	// connection stops budgeting receive window for it, matching the
	// re-injection credit it is about to get back.
	s.nextSeq = s.cumAck
	s.ssthresh = max(s.cwnd/2, 2)
	s.cwnd = s.cfg.MinCwnd
	s.viewDirty = true
	s.notePath(core.PathDown)
	s.probeIval = s.cfg.ProbeInterval
	s.probeTimer.Set(s.eng.Now() + s.probeIval)
	// Notify last: the coordinator may immediately push the freed budget
	// onto sibling subflows.
	s.coord.NoteFailed(s.id, unacked)
}

// probe, run by probeTimer while the subflow is dead, sends one probe — a
// retransmission of the first unacked segment — and sets the next one with
// the interval doubled, clamped at RTOMax. The receiver's cumulative ACK
// always covers at least this segment's hole state, so any delivered probe
// draws an ACK that advances (or re-states) the cumulative ACK; an advance
// revives the subflow.
func (s *Subflow) probe() {
	if s.state == StateDead {
		s.state = StateProbing
		s.transitions.Add(s.eng.Now(), "probing")
	}
	s.stats.Probes++
	s.sendSeq(s.cumAck, true)
	s.probeIval *= 2
	if s.probeIval > s.cfg.RTOMax {
		s.probeIval = s.cfg.RTOMax
	}
	s.probeTimer.Set(s.eng.Now() + s.probeIval)
}

// revive returns a dead subflow to service after an ACK proved the path
// carries traffic again: stop probing, and restart from the (just advanced)
// cumulative ACK with a minimal window, slow-starting like a fresh flow.
func (s *Subflow) revive() {
	s.probeTimer.Stop()
	s.state = StateActive
	s.stats.Revivals++
	s.transitions.Add(s.eng.Now(), "active")
	s.inRecovery = false
	s.retransmitted = s.retransmitted[:0]
	s.sacked = s.sacked[:0]
	s.scanFrom = s.cumAck
	s.nextSeq = s.cumAck
	s.cwnd = s.cfg.MinCwnd
	s.viewDirty = true
	s.coord.NoteRevived(s.id)
	s.notePath(core.PathUp)
	s.trySend()
	s.restartRTO()
}

// notePath tells a core.PathObserver algorithm about a path event on this
// subflow.
func (s *Subflow) notePath(ev core.PathEvent) {
	if obs, ok := s.coord.Alg().(core.PathObserver); ok {
		obs.OnPath(s.coord.Views(), s.id, ev)
	}
}

// Receive implements netem.Endpoint for returning ACKs.
func (s *Subflow) Receive(p *netem.Packet) {
	if !p.IsAck {
		p.Release() // a stray data packet addressed to the sender; drop it
		return
	}
	s.acksIn++
	if p.ECE {
		s.stats.MarkedAcked++
	}
	s.noteSack(p.SackSeq)
	if p.Ack > s.cumAck {
		s.onNewAck(p)
	}
	// Duplicate ACKs carry only the SACK information recorded above.
	p.Release()
	if s.state != StateActive {
		// Still dead: a duplicate ACK (e.g. a straggler or an unanswered
		// probe's echo) is not proof of a healed path.
		return
	}
	s.sackRetransmit()
	s.trySend()
}

// noteSack records that segment seq has arrived at the receiver.
func (s *Subflow) noteSack(seq int64) {
	if seq < s.cumAck {
		return
	}
	i := sort.Search(len(s.sacked), func(i int) bool { return s.sacked[i] >= seq })
	if i < len(s.sacked) && s.sacked[i] == seq {
		return
	}
	s.sacked = append(s.sacked, 0)
	copy(s.sacked[i+1:], s.sacked[i:])
	s.sacked[i] = seq
}

// pruneBelow discards SACK and retransmission state below the cumulative
// acknowledgement. Both sets are sorted, so pruning is a cut at the first
// surviving entry — no per-entry iteration as with the map this replaces.
func (s *Subflow) pruneBelow(cum int64) {
	i := sort.Search(len(s.sacked), func(i int) bool { return s.sacked[i] >= cum })
	if i > 0 {
		s.sacked = append(s.sacked[:0], s.sacked[i:]...)
	}
	i = sort.Search(len(s.retransmitted), func(i int) bool { return s.retransmitted[i] >= cum })
	if i > 0 {
		s.retransmitted = append(s.retransmitted[:0], s.retransmitted[i:]...)
	}
}

func (s *Subflow) onNewAck(p *netem.Packet) {
	acked := int(p.Ack - s.cumAck)
	s.cumAck = p.Ack
	if s.nextSeq < s.cumAck {
		// Post-RTO resends can be cumulatively acked past the rolled-back
		// send point (the receiver had the rest buffered); skip ahead.
		s.nextSeq = s.cumAck
		s.maxSent = max(s.maxSent, s.nextSeq)
	}
	// Karn's rule (RFC 6298, 3): an ACK covering a segment that was
	// retransmitted is ambiguous — the echoed timestamp may belong to
	// either transmission — so it must not produce an RTT sample (and,
	// with no sample, must not reset the timer backoff either; 5.7).
	// Decided before pruneBelow erases exactly the entries it consults.
	karn := len(s.retransmitted) > 0 && s.retransmitted[0] < p.Ack
	s.consecRTO = 0
	s.stats.PktsAcked += uint64(acked)
	if s.price != p.EchoPrice {
		s.price = p.EchoPrice
		s.viewDirty = true
	}
	s.pruneBelow(s.cumAck)

	if !karn {
		s.sampleRTT(s.eng.Now() - p.EchoedAt)
	}

	if s.state != StateActive {
		// The cumulative ACK moved while the subflow was dead: the path
		// answered (usually to a probe). Credit the connection before
		// reviving so the restarted sender sees the freed budget.
		s.coord.NoteAcked(s.id, acked)
		s.revive()
		return
	}

	alg := s.coord.Alg()
	views := s.coord.Views()
	if obs, ok := alg.(core.AckObserver); ok {
		obs.OnAck(views, s.id, acked, p.ECE)
	}

	if s.inRecovery {
		if s.cumAck >= s.recover {
			// Full acknowledgement: leave recovery with the deflated window.
			s.inRecovery = false
		}
	} else {
		s.grow(acked, views, alg)
	}

	s.roundTick(views, alg)
	s.coord.NoteAcked(s.id, acked)
	s.restartRTO()
}

// sackRetransmit detects holes with enough SACK evidence above them
// (DupAckThreshold segments, the RFC 6675 rule with per-segment ACKs) and
// retransmits each once per episode, within the pipe budget. The first
// detection of an episode triggers the congestion response.
func (s *Subflow) sackRetransmit() {
	if len(s.sacked) < s.cfg.DupAckThreshold {
		return
	}
	// Every hole below lostBound has >= DupAckThreshold sacked segments
	// above it.
	lostBound := s.sacked[len(s.sacked)-s.cfg.DupAckThreshold]
	if s.cumAck >= lostBound {
		return
	}

	if !s.inRecovery {
		s.enterRecovery()
	}

	// Walk the holes — gaps below sacked[0], then between consecutive
	// sacked entries, clipped to lostBound — resuming at the scan cursor.
	// Everything below the cursor was already retransmitted (or received),
	// so skipping it is sound until an RTO resets the episode.
	budget := func() bool { return float64(s.Outstanding()) < s.cwnd }
	h := s.scanFrom
	if h < s.cumAck {
		h = s.cumAck
	}
	idx := sort.Search(len(s.sacked), func(i int) bool { return s.sacked[i] >= h })
	for h < lostBound {
		if idx < len(s.sacked) && h == s.sacked[idx] {
			h++
			idx++
			continue
		}
		if !s.wasRetransmitted(h) {
			if !budget() {
				break
			}
			s.sendSeq(h, true) // records the retransmission itself
		}
		h++
	}
	s.scanFrom = h
	s.ensureRTO()
}

// wasRetransmitted reports whether hole seq was already resent this episode.
func (s *Subflow) wasRetransmitted(seq int64) bool {
	i := sort.Search(len(s.retransmitted), func(i int) bool { return s.retransmitted[i] >= seq })
	return i < len(s.retransmitted) && s.retransmitted[i] == seq
}

// noteRetransmitted records hole seq as resent. The hole scan walks
// sequence numbers upward and never behind the scan cursor, so in practice
// this is a tail append; the general sorted insert is kept for safety.
func (s *Subflow) noteRetransmitted(seq int64) {
	if n := len(s.retransmitted); n == 0 || s.retransmitted[n-1] < seq {
		s.retransmitted = append(s.retransmitted, seq)
		return
	}
	i := sort.Search(len(s.retransmitted), func(i int) bool { return s.retransmitted[i] >= seq })
	if i < len(s.retransmitted) && s.retransmitted[i] == seq {
		return
	}
	s.retransmitted = append(s.retransmitted, 0)
	copy(s.retransmitted[i+1:], s.retransmitted[i:])
	s.retransmitted[i] = seq
}

func (s *Subflow) enterRecovery() {
	s.stats.LossEvents++
	newCwnd := max(s.coord.Alg().Decrease(s.coord.Views(), s.id), s.cfg.MinCwnd)
	s.ssthresh = max(newCwnd, 2)
	s.cwnd = newCwnd
	s.viewDirty = true
	s.inRecovery = true
	s.recover = s.nextSeq
}

func (s *Subflow) grow(acked int, views []core.View, alg core.Algorithm) {
	// Congestion-window validation (RFC 7661): only grow when the window
	// was actually the binding constraint. A receive-window- or
	// application-limited flow must not inflate cwnd it never uses.
	if float64(s.Inflight()+int64(acked)) < s.cwnd-1 {
		return
	}
	if s.cwnd < s.ssthresh {
		if !s.cfg.DisableHystart && s.delaySignal() {
			// HyStart-style exit: the RTT samples show queue build-up, so
			// stop doubling before overshooting into heavy loss. Clamped
			// like every other ssthresh assignment: right after a timeout
			// cwnd sits at MinCwnd, which can be below 2.
			s.ssthresh = max(s.cwnd, 2)
			s.viewDirty = true
		} else {
			// Slow start: one segment per acked segment, not beyond ssthresh.
			s.cwnd += float64(acked)
			if s.cwnd > s.ssthresh {
				s.cwnd = s.ssthresh
			}
			s.viewDirty = true
			return
		}
	}
	s.cwnd += alg.Increase(views, s.id) * float64(acked)
	if s.cwnd < s.cfg.MinCwnd {
		s.cwnd = s.cfg.MinCwnd
	}
	s.viewDirty = true
}

// delaySignal reports whether the latest RTT sample shows enough queueing
// delay over the path floor to justify leaving slow start (the HyStart
// delay-increase heuristic: an eighth of the base RTT, clamped to
// [4 ms, 16 ms]).
func (s *Subflow) delaySignal() bool {
	base := s.rtt.MinRTT()
	if base == 0 {
		return false
	}
	thresh := base / 8
	if thresh < 4*sim.Millisecond {
		thresh = 4 * sim.Millisecond
	}
	if thresh > 16*sim.Millisecond {
		thresh = 16 * sim.Millisecond
	}
	return s.rtt.LatestRTT() >= base+thresh
}

func (s *Subflow) roundTick(views []core.View, alg core.Algorithm) {
	if s.cumAck < s.roundEnd {
		return
	}
	s.roundEnd = s.nextSeq
	s.stats.RoundTrips++
	if rt, ok := alg.(core.RoundTuner); ok {
		cwnd, ssthresh := rt.OnRound(views, s.id)
		s.cwnd = max(cwnd, s.cfg.MinCwnd)
		s.ssthresh = max(ssthresh, 2)
		s.viewDirty = true
	}
}

// sampleRTT feeds one unambiguous sample (Karn-filtered by the caller) to
// the estimator. An accepted sample recomputes the cached RTO and resets
// the exponential timer backoff — RFC 6298 5.7 resets backoff only here,
// never on a bare cumulative-ACK advance.
func (s *Subflow) sampleRTT(rtt sim.Time) {
	if !s.rtt.UpdateRTT(rtt, 0, s.eng.Now()) {
		return
	}
	s.viewDirty = true
	s.backoff = 0
	s.rto = s.rtt.RTO(s.cfg.RTOMin, s.cfg.RTOMax)
}

var _ netem.Endpoint = (*Subflow)(nil)

package check

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// DefaultInterval is the invariant-evaluation cadence in simulated time.
// Fifty milliseconds keeps the overhead far below the packet event rate
// while still catching transient corruption within a few RTTs.
const DefaultInterval = 50 * sim.Millisecond

// Violation is one failed invariant: where in simulated time, which rule,
// and the concrete numbers that broke it.
type Violation struct {
	T         sim.Time
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.3fs %s: %s", v.T.Seconds(), v.Invariant, v.Detail)
}

// The invariant names, as they appear in Violation.Invariant. Each has a
// matching negative test in invariants_test.go that must trip it.
const (
	InvClock       = "clock"             // engine time never decreases
	InvConnConserv = "conn.conservation" // ΣMaxSent = Sent+Reinjected; Acked ≤ Sent
	InvCredit      = "conn.credit"       // re-injection credits balanced and bounded
	InvSeq         = "subflow.seq"       // 0 ≤ CumAck ≤ NextSeq ≤ MaxSent; pipes non-negative
	InvCwnd        = "subflow.cwnd"      // MinCwnd ≤ cwnd, ssthresh ≥ 2, all finite
	InvState       = "subflow.state"     // legal failover transitions, ordered in time
	InvEnergy      = "meter.energy"      // joules non-negative, non-decreasing, finite
	InvLinkConserv = "link.conservation" // arrived = delivered + dropped + queued
	InvWeights     = "alg.weights"       // Σ weights = 1 ± ε, each in [0, 1], finite
)

// weightSumTol bounds |Σ weights − 1| for weighted algorithms: the vector
// is renormalized exactly on membership changes and preserved by the EWMA
// round update, so only float rounding accumulates.
const weightSumTol = 1e-6

// --- snapshot layer -------------------------------------------------------
//
// Invariants are evaluated against plain snapshot structs, never against
// live objects, so each rule is a pure function that the negative tests can
// feed deliberately broken states. The checker refills one snapshot per
// watched connection in place at every tick.

// SubflowState is the checked view of one tcp.Subflow.
type SubflowState struct {
	ID              int
	Cwnd, SSThresh  float64
	MinCwnd         float64
	CumAck          int64
	NextSeq         int64
	MaxSent         int64
	Inflight        int64
	Outstanding     int64
	State           string   // "active", "dead" or "probing"
	Transitions     []string // failover timeline labels, in order
	TransitionTimes []sim.Time
}

// ConnState is the checked view of one mptcp.Conn.
type ConnState struct {
	Name       string
	Sent       int64 // distinct segments currently charged (net of handbacks)
	Acked      int64 // segments counted as delivered at the connection level
	Reinjected int64 // lifetime total of segments handed back at failures
	Credits    []int64
	Subflows   []SubflowState

	// Weights is the algorithm's per-subflow weight vector when the
	// algorithm is core.Weighted (wVegas) and has initialized it; nil
	// otherwise. Σ weights must stay at 1 within weightSumTol.
	Weights []float64
}

// LinkState is the checked view of one netem.Link's conservation counters.
type LinkState struct {
	Name          string
	Arrived       uint64
	Delivered     uint64
	Dropped       uint64
	RandDropped   uint64
	OutageDropped uint64
	Queued        int
}

// MeterState is the checked view of one energy.Meter: the current reading
// plus the reading at the previous check, for monotonicity.
type MeterState struct {
	Name       string
	Joules     float64
	PrevJoules float64
	MeanPower  float64
}

// refill reads c's checked state into st in place: every slice keeps its
// backing array, so a checker that owns one ConnState per watched
// connection allocates nothing once they have grown.
func (st *ConnState) refill(c *mptcp.Conn) {
	st.Sent, st.Acked, st.Reinjected = c.SentSegs(), c.AckedSegs(), c.ReinjectedSegs()
	st.Credits = c.AppendReinjectCredits(st.Credits[:0])
	st.Weights = st.Weights[:0]
	if w, ok := c.Alg().(core.Weighted); ok {
		st.Weights = append(st.Weights, w.Weights()...)
	}
	subs := c.Subflows()
	st.Subflows = slices.Grow(st.Subflows[:0], len(subs))[:len(subs)]
	for i, s := range subs {
		sub := &st.Subflows[i]
		labels, times := sub.Transitions[:0], sub.TransitionTimes[:0]
		for _, ev := range s.Transitions().Events {
			labels = append(labels, ev.Label)
			times = append(times, ev.T)
		}
		*sub = SubflowState{
			ID:              s.ID(),
			Cwnd:            s.Cwnd(),
			SSThresh:        s.SSThresh(),
			MinCwnd:         tcp.MinCwnd,
			CumAck:          s.Acked(),
			NextSeq:         s.NextSeq(),
			MaxSent:         s.MaxSent(),
			Inflight:        s.Inflight(),
			Outstanding:     s.Outstanding(),
			State:           s.State().String(),
			Transitions:     labels,
			TransitionTimes: times,
		}
	}
}

// SnapshotLink extracts the checked state of a link.
func SnapshotLink(l *netem.Link) LinkState {
	return LinkState{
		Name:          l.Name(),
		Arrived:       l.Arrived(),
		Delivered:     l.Delivered(),
		Dropped:       l.Dropped(),
		RandDropped:   l.RandDropped(),
		OutageDropped: l.OutageDropped(),
		Queued:        l.QueueLen(),
	}
}

// --- pure invariant checks ------------------------------------------------

// CheckConn evaluates the connection-level and per-subflow invariants at
// instant t.
func CheckConn(t sim.Time, st ConnState) []Violation {
	var out []Violation
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{T: t, Invariant: inv,
			Detail: fmt.Sprintf("conn %s: ", st.Name) + fmt.Sprintf(format, args...)})
	}

	// Segment conservation. Every distinct segment is charged exactly once
	// per subflow that carries it (Grant), and failures move charges from
	// Sent to Reinjected without creating or destroying any.
	var sumMaxSent int64
	for _, s := range st.Subflows {
		sumMaxSent += s.MaxSent
	}
	if sumMaxSent != st.Sent+st.Reinjected {
		add(InvConnConserv, "ΣMaxSent=%d but Sent+Reinjected=%d+%d=%d",
			sumMaxSent, st.Sent, st.Reinjected, st.Sent+st.Reinjected)
	}
	if st.Sent < 0 || st.Acked < 0 || st.Reinjected < 0 {
		add(InvConnConserv, "negative counter: sent=%d acked=%d reinjected=%d",
			st.Sent, st.Acked, st.Reinjected)
	}
	if st.Acked > st.Sent {
		add(InvConnConserv, "delivered more than charged: acked=%d > sent=%d",
			st.Acked, st.Sent)
	}

	// Re-injection credit balance: every credit is non-negative, never
	// exceeds the frozen unacked range of its subflow, and the total never
	// exceeds what was handed back over the connection's lifetime.
	var sumCredit int64
	for r, credit := range st.Credits {
		sumCredit += credit
		if credit < 0 {
			add(InvCredit, "subflow %d credit %d < 0", r, credit)
			continue
		}
		if r < len(st.Subflows) {
			if unacked := st.Subflows[r].MaxSent - st.Subflows[r].CumAck; credit > unacked {
				add(InvCredit, "subflow %d credit %d exceeds unacked range %d", r, credit, unacked)
			}
		}
	}
	if sumCredit > st.Reinjected {
		add(InvCredit, "Σcredit=%d exceeds lifetime reinjected=%d", sumCredit, st.Reinjected)
	}

	// Weighted algorithms (wVegas): the rate-share weight vector stays a
	// probability vector — each weight finite in [0, 1], summing to 1.
	if len(st.Weights) > 0 {
		var sum float64
		for r, w := range st.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 || w > 1+weightSumTol {
				add(InvWeights, "weight[%d]=%g outside [0, 1]", r, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > weightSumTol {
			add(InvWeights, "Σweights=%g differs from 1 by more than %g", sum, weightSumTol)
		}
	}

	for _, s := range st.Subflows {
		out = append(out, checkSubflow(t, st.Name, s)...)
	}
	return out
}

// validStates are the legal subflow failover states and their legal
// successors in the transition timeline. A subflow starts active; "active"
// in the timeline is a revival.
var validSuccessor = map[string]map[string]bool{
	"active":  {"dead": true},
	"dead":    {"probing": true, "active": true},
	"probing": {"active": true},
}

func checkSubflow(t sim.Time, conn string, s SubflowState) []Violation {
	var out []Violation
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{T: t, Invariant: inv,
			Detail: fmt.Sprintf("conn %s subflow %d: ", conn, s.ID) + fmt.Sprintf(format, args...)})
	}

	// Sequence-space ordering and non-negative pipes.
	if s.CumAck < 0 || s.CumAck > s.NextSeq || s.NextSeq > s.MaxSent {
		add(InvSeq, "sequence order broken: 0 ≤ cumAck=%d ≤ nextSeq=%d ≤ maxSent=%d",
			s.CumAck, s.NextSeq, s.MaxSent)
	}
	if s.Inflight < 0 {
		add(InvSeq, "negative inflight %d", s.Inflight)
	}
	if s.Outstanding < 0 || s.Outstanding > s.Inflight {
		add(InvSeq, "outstanding=%d outside [0, inflight=%d]", s.Outstanding, s.Inflight)
	}

	// Window bounds. The transport floors cwnd at MinCwnd and ssthresh at 2
	// on every write; 1<<30 is the initial "infinite" ssthresh, so anything
	// above it means arithmetic ran away.
	const maxWindow = float64(1 << 30)
	if math.IsNaN(s.Cwnd) || math.IsInf(s.Cwnd, 0) || s.Cwnd < s.MinCwnd || s.Cwnd > maxWindow {
		add(InvCwnd, "cwnd=%g outside [minCwnd=%g, %g]", s.Cwnd, s.MinCwnd, maxWindow)
	}
	if math.IsNaN(s.SSThresh) || math.IsInf(s.SSThresh, 0) || s.SSThresh < 2 || s.SSThresh > maxWindow {
		add(InvCwnd, "ssthresh=%g outside [2, %g]", s.SSThresh, maxWindow)
	}

	// Failover state machine: a known state, a timeline that moves forward
	// in time through legal transitions, ending at the current state.
	if _, ok := validSuccessor[s.State]; !ok {
		add(InvState, "unknown state %q", s.State)
		return out
	}
	prev := "active"
	var prevT sim.Time
	for i, label := range s.Transitions {
		if !validSuccessor[prev][label] {
			add(InvState, "illegal transition %s→%s at timeline index %d", prev, label, i)
		}
		if i < len(s.TransitionTimes) {
			if tt := s.TransitionTimes[i]; tt < prevT {
				add(InvState, "transition %s at %.3fs before previous at %.3fs",
					label, tt.Seconds(), prevT.Seconds())
			} else {
				prevT = tt
			}
		}
		prev = label
	}
	if prev != s.State {
		add(InvState, "timeline ends at %q but state is %q", prev, s.State)
	}
	return out
}

// CheckLink evaluates per-link packet conservation at instant t: every
// packet presented to the link is delivered, dropped (overflow, random loss
// or outage) or still queued — nothing appears or vanishes.
func CheckLink(t sim.Time, st LinkState) []Violation {
	accounted := st.Delivered + st.Dropped + st.RandDropped + st.OutageDropped + uint64(st.Queued)
	if st.Arrived != accounted {
		return []Violation{{T: t, Invariant: InvLinkConserv, Detail: fmt.Sprintf(
			"link %s: arrived=%d but delivered+dropped+rand+outage+queued=%d+%d+%d+%d+%d=%d",
			st.Name, st.Arrived, st.Delivered, st.Dropped, st.RandDropped,
			st.OutageDropped, st.Queued, accounted)}}
	}
	return nil
}

// CheckMeter evaluates the energy-accounting invariants at instant t:
// joules are finite, non-negative and non-decreasing, and mean power is
// finite and non-negative.
func CheckMeter(t sim.Time, st MeterState) []Violation {
	var out []Violation
	add := func(format string, args ...any) {
		out = append(out, Violation{T: t, Invariant: InvEnergy,
			Detail: fmt.Sprintf("meter %s: ", st.Name) + fmt.Sprintf(format, args...)})
	}
	if math.IsNaN(st.Joules) || math.IsInf(st.Joules, 0) || st.Joules < 0 {
		add("joules=%g not a finite non-negative value", st.Joules)
	}
	if st.Joules < st.PrevJoules {
		add("joules decreased: %g after %g", st.Joules, st.PrevJoules)
	}
	if math.IsNaN(st.MeanPower) || math.IsInf(st.MeanPower, 0) || st.MeanPower < 0 {
		add("mean power %g not a finite non-negative value", st.MeanPower)
	}
	return out
}

// --- runtime --------------------------------------------------------------

// Invariants hooks a running simulation and evaluates every registered
// invariant on a fixed simulated-time cadence (and once more via Final at
// the end of the run). Register objects before Start; the checker is as
// deterministic as the run it watches.
type Invariants struct {
	eng *sim.Engine

	// FailFast panics on the first violation with full detail, freezing the
	// run at the instant the invariant broke. The experiment harness and
	// tests use it; the CLIs collect violations and report them as errors.
	FailFast bool

	// MaxRecorded caps the stored violations (the count keeps rising).
	MaxRecorded int

	conns  []watchedConn
	links  []*netem.Link
	meters []*watchedMeter

	lastNow    sim.Time
	checks     uint64
	violations []Violation
	dropped    int // violations beyond MaxRecorded
	ticker     sim.Ticker
}

// watchedConn is a watched connection and the state Check refills from it.
type watchedConn struct {
	conn *mptcp.Conn
	st   ConnState
}

type watchedMeter struct {
	name       string
	meter      *energy.Meter
	prevJoules float64
}

// New creates a checker on eng with the default cadence.
func New(eng *sim.Engine) *Invariants {
	inv := &Invariants{eng: eng, MaxRecorded: 32}
	inv.SetInterval(DefaultInterval)
	return inv
}

// SetInterval overrides the evaluation cadence; call before Start.
func (inv *Invariants) SetInterval(d sim.Time) {
	if d > 0 {
		inv.ticker = sim.MakeTicker(inv.eng, d, inv.Check)
	}
}

// Watch registers a connection (and through it every subflow, plus every
// link of the subflows' paths for packet conservation). name tags
// violations when a run has several connections; "" is fine for one.
func (inv *Invariants) Watch(name string, c *mptcp.Conn) {
	inv.conns = append(inv.conns, watchedConn{conn: c, st: ConnState{Name: name}})
	for _, s := range c.Subflows() {
		inv.WatchPaths(s.Path())
	}
}

// Unwatch removes a previously watched connection so a churning population
// can keep the watched set bounded by concurrency. Links stay watched —
// link-level conservation is cumulative and cheap, and a link outlives the
// flows crossing it. Unwatching a connection that was never watched is a
// no-op.
func (inv *Invariants) Unwatch(c *mptcp.Conn) {
	for i, wc := range inv.conns {
		if wc.conn == c {
			inv.conns = append(inv.conns[:i], inv.conns[i+1:]...)
			return
		}
	}
}

// WatchLinks registers links for per-link packet conservation.
func (inv *Invariants) WatchLinks(links ...*netem.Link) {
	inv.links = append(inv.links, links...)
}

// WatchPaths registers every distinct link of the given paths.
func (inv *Invariants) WatchPaths(paths ...*netem.Path) {
	seen := make(map[*netem.Link]bool)
	for _, l := range inv.links {
		seen[l] = true
	}
	for _, p := range paths {
		for _, dir := range [][]*netem.Link{p.Forward, p.Reverse} {
			for _, l := range dir {
				if !seen[l] {
					seen[l] = true
					inv.links = append(inv.links, l)
				}
			}
		}
	}
}

// WatchMeter registers an energy meter.
func (inv *Invariants) WatchMeter(name string, m *energy.Meter) {
	inv.meters = append(inv.meters, &watchedMeter{name: name, meter: m})
}

// Start begins periodic evaluation. Calling Start twice is a no-op.
func (inv *Invariants) Start() {
	inv.lastNow = inv.eng.Now()
	inv.ticker.Start()
}

// Stop ends periodic evaluation and cancels the queued one; Check and Final
// still evaluate on demand.
func (inv *Invariants) Stop() { inv.ticker.Stop() }

// Check evaluates every invariant right now. The periodic tick calls it;
// tests and the CLIs may call it at interesting instants as well.
func (inv *Invariants) Check() {
	now := inv.eng.Now()
	inv.checks++
	if now < inv.lastNow {
		inv.report(Violation{T: now, Invariant: InvClock, Detail: fmt.Sprintf(
			"engine clock went backwards: %.6fs after %.6fs", now.Seconds(), inv.lastNow.Seconds())})
	}
	inv.lastNow = now
	for i := range inv.conns {
		wc := &inv.conns[i]
		wc.st.refill(wc.conn)
		inv.report(CheckConn(now, wc.st)...)
	}
	for _, l := range inv.links {
		inv.report(CheckLink(now, SnapshotLink(l))...)
	}
	for _, wm := range inv.meters {
		st := MeterState{
			Name:       wm.name,
			Joules:     wm.meter.Joules(),
			PrevJoules: wm.prevJoules,
			MeanPower:  wm.meter.MeanPower(),
		}
		inv.report(CheckMeter(now, st)...)
		wm.prevJoules = st.Joules
	}
}

// Final runs one last evaluation; call it after the engine returns so the
// end-of-run state is covered even when the horizon fell between ticks.
func (inv *Invariants) Final() { inv.Check() }

// Inject reports v as if a checker had found it, honouring FailFast. It is
// the failpoint hook the chaos subsystem uses to exercise the quarantine
// and shrinking machinery with a synthetic, perfectly reproducible
// violation — production checkers never call it.
func (inv *Invariants) Inject(v Violation) { inv.report(v) }

func (inv *Invariants) report(vs ...Violation) {
	if len(vs) == 0 {
		return
	}
	if inv.FailFast {
		panic(&Failure{Violations: vs[:1], Total: 1, fast: true})
	}
	for _, v := range vs {
		if len(inv.violations) < inv.MaxRecorded {
			inv.violations = append(inv.violations, v)
		} else {
			inv.dropped++
		}
	}
}

// Checks reports how many evaluation passes have run.
func (inv *Invariants) Checks() uint64 { return inv.checks }

// Err returns nil when every check passed, or the *Failure summarizing
// the violations.
func (inv *Invariants) Err() error {
	if len(inv.violations) == 0 {
		return nil
	}
	return &Failure{Violations: inv.violations, Total: len(inv.violations) + inv.dropped}
}

// Failure is the one shape an invariant failure takes: the value a FailFast
// checker panics with and the error Err returns. Whoever classifies a run
// finds it with errors.As and reads the first violated invariant's name
// from Invariant; nobody needs to parse Error's text.
type Failure struct {
	// Violations holds the first violation (FailFast) or the recorded ones
	// (up to MaxRecorded); Total counts every violation found.
	Violations []Violation
	Total      int
	fast       bool
}

// Invariant names the first violated invariant.
func (f *Failure) Invariant() string { return f.Violations[0].Invariant }

func (f *Failure) Error() string {
	if f.fast {
		return "check: invariant violated: " + f.Violations[0].String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "check: %d invariant violation(s)", f.Total)
	const show = 8
	for i, v := range f.Violations {
		if i == show {
			fmt.Fprintf(&sb, "; … %d more", f.Total-show)
			break
		}
		sb.WriteString("; ")
		sb.WriteString(v.String())
	}
	return sb.String()
}

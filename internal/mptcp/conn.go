// Package mptcp implements the MPTCP connection layer: one connection
// spreads over multiple subflows (internal/tcp senders on distinct
// netem.Paths) whose congestion windows evolve under a shared, possibly
// coupled core.Algorithm. The connection enforces the connection-level
// receive window across subflows and accounts for transfer completion.
//
// Data scheduling is pull-based: a subflow pulls a new segment whenever its
// own window and the connection-level window have room, so low-RTT subflows
// — whose ACK clock runs faster — naturally pull more data, approximating
// the Linux default lowest-RTT scheduler. Connection-level reassembly is
// not modelled beyond the shared receive-window cap, the standard
// simplification for congestion-control studies (htsim does the same).
package mptcp

import (
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// Config configures a connection.
type Config struct {
	// Transport is the per-subflow TCP parameterization.
	Transport tcp.Config

	// Algorithm names the congestion-control algorithm (see core.Names).
	Algorithm string

	// RwndSegments caps the total segments in flight across all subflows
	// (the connection-level receive window). 0 means unlimited.
	RwndSegments int64

	// TransferBytes is the amount of application data to send; 0 means an
	// unlimited (long-lived) source.
	TransferBytes int64

	// AppLimited, when set, makes the connection send only data the
	// application has produced via Produce (a streaming source), instead
	// of an infinite backlog. Mutually exclusive with TransferBytes.
	AppLimited bool
}

// Conn is one MPTCP connection (or, with a single path and a single-path
// algorithm, a regular TCP connection).
type Conn struct {
	eng  *sim.Engine
	cfg  Config
	alg  core.Algorithm
	subs []*tcp.Subflow

	totalSegs    int64 // 0 = unlimited
	producedSegs int64 // app-limited mode: segments made available
	sentSegs     int64
	ackedSegs    int64

	done        bool
	completedAt sim.Time

	// OnComplete, when set, fires once when the whole transfer is acked.
	OnComplete func(at sim.Time)

	// ctl is the per-subflow control block, indexed by subflow ID.
	ctl            []subCtl
	reinjectedSegs int64

	views []core.View
}

// subCtl is the per-subflow scheduling state the coordinator consults on
// every send and ack.
type subCtl struct {
	// disabled gates new data (path-selection baselines suspend expensive
	// paths); in-flight data still drains.
	disabled bool

	// Failover bookkeeping. When a subflow declares its path dead it hands
	// back its unacked segments: sentSegs is decremented by that amount
	// (the re-injection — surviving subflows may now send that much more
	// new data) and the same amount is recorded as the dead subflow's
	// reinjectCredit. Acks later arriving on that subflow (its probes, or
	// its go-back-N resends after revival) are discounted against the
	// remaining credit before they count toward ackedSegs or goodput, so
	// a segment delivered both by the revived subflow and by a re-injected
	// copy is never counted twice.
	reinjectCredit int64
}

// New assembles a connection with one subflow per path. flowID tags packets
// for tracing.
func New(eng *sim.Engine, cfg Config, flowID uint64, paths ...*netem.Path) (*Conn, error) {
	c := new(Conn)
	if err := c.Reset(eng, cfg, flowID, paths...); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds the connection in place as New would build it, for a new
// transfer over paths: every field is rewritten from the arguments, the
// subflows are Reset one by one (and made where there are more paths than
// before), and only the subflow objects and the per-subflow slices' backing
// arrays survive. New is Reset on a blank connection, so there is
// one construction path. On error the connection is left as it was. Call it
// only on a connection that Close retired and that no caller still drives.
func (c *Conn) Reset(eng *sim.Engine, cfg Config, flowID uint64, paths ...*netem.Path) error {
	if len(paths) == 0 {
		return fmt.Errorf("mptcp: connection needs at least one path")
	}
	if cfg.TransferBytes > 0 && cfg.AppLimited {
		return fmt.Errorf("mptcp: Config.TransferBytes and Config.AppLimited are mutually exclusive; use TransferBytes for a fixed-size transfer or AppLimited with Produce for a streaming source")
	}
	alg, err := core.New(cfg.Algorithm)
	if err != nil {
		return err
	}
	// Up to cap, not len: subflow objects a narrower incarnation left
	// unused are still there for a wider one.
	n := len(paths)
	subs := c.subs[:cap(c.subs)]
	if len(subs) < n {
		subs = append(subs, make([]*tcp.Subflow, n-len(subs))...)
	}
	*c = Conn{
		eng:   eng,
		cfg:   cfg,
		subs:  subs[:n],
		ctl:   append(c.ctl[:0], make([]subCtl, n)...),
		views: append(c.views[:0], make([]core.View, n)...),
	}
	c.alg = alg
	if cfg.TransferBytes > 0 {
		c.totalSegs = (cfg.TransferBytes + tcp.MSS - 1) / tcp.MSS
	}
	for i, p := range paths {
		if c.subs[i] == nil {
			c.subs[i] = new(tcp.Subflow)
		}
		c.subs[i].Reset(eng, cfg.Transport, c, flowID, i, p)
	}
	return nil
}

// Close retires a connection nobody drives any more (no Produce, no
// SetSubflowEnabled, no Start). If every subflow is settled — no packet of
// the connection is or will be in the network (tcp.Close) — it stops their
// deadlines and returns true: the connection owns no event, and Reset is
// safe. Otherwise it touches nothing and returns false.
func (c *Conn) Close() bool { return tcp.Close(c.subs...) }

// MustNew is New for known-good configurations; it panics on error.
func MustNew(eng *sim.Engine, cfg Config, flowID uint64, paths ...*netem.Path) *Conn {
	c, err := New(eng, cfg, flowID, paths...)
	if err != nil {
		panic(err)
	}
	return c
}

// SetAlgorithm swaps the congestion-control algorithm instance; call it
// before Start (used for parameterized variants outside the registry).
func (c *Conn) SetAlgorithm(alg core.Algorithm) { c.alg = alg }

// Start begins the transfer on every subflow. Produce and NoteFailed call it
// again to kick the subflows into taking data that just became theirs; a
// dead subflow ignores the kick.
func (c *Conn) Start() {
	for _, s := range c.subs {
		s.Start()
	}
}

// Alg implements tcp.Coordinator.
func (c *Conn) Alg() core.Algorithm { return c.alg }

// Views implements tcp.Coordinator: every subflow's view, stamped with the
// engine clock. Each subflow refreshes its own slot, and only after one of
// the slot's inputs changed. The returned slice is reused between calls;
// algorithms must neither retain nor modify it.
func (c *Conn) Views() []core.View {
	now := c.eng.Now().Seconds()
	for i, s := range c.subs {
		s.RefreshView(&c.views[i])
		c.views[i].Now = now
	}
	return c.views
}

// Grant implements tcp.Coordinator. It refuses for one of three reasons: no
// data is left to send, the connection-level window is full, or subflow r is
// disabled. A subflow asks only for a distinct new segment (retransmissions
// are not re-charged), so sentSegs counts the application segments handed to
// subflows.
func (c *Conn) Grant(r int) bool {
	switch {
	case c.totalSegs > 0 && c.sentSegs >= c.totalSegs, c.cfg.AppLimited && c.sentSegs >= c.producedSegs:
		return false
	case c.cfg.RwndSegments > 0 && c.inflight() >= c.cfg.RwndSegments:
		return false
	case c.ctl[r].disabled:
		return false
	}
	c.sentSegs++
	return true
}

// SetSubflowEnabled gates new data on subflow r (in-flight data still
// drains). Path-selection baselines use it to suspend expensive paths.
func (c *Conn) SetSubflowEnabled(r int, enabled bool) {
	c.ctl[r].disabled = !enabled
	if enabled {
		c.subs[r].Start()
	}
}

// SubflowEnabled reports whether subflow r may send new data.
func (c *Conn) SubflowEnabled(r int) bool {
	return !c.ctl[r].disabled
}

// NoteAcked implements tcp.Coordinator. Acks on a subflow carrying
// re-injection credit are discounted against it first (see the failover
// fields): those segments were handed back to the connection when the
// subflow failed, so counting them again would double-book delivery.
func (c *Conn) NoteAcked(r int, pkts int) {
	counted := int64(pkts)
	if disc := c.ctl[r].reinjectCredit; disc > 0 {
		if disc > counted {
			disc = counted
		}
		c.ctl[r].reinjectCredit -= disc
		counted -= disc
	}
	if counted <= 0 {
		return
	}
	c.ackedSegs += counted
	if !c.done && c.totalSegs > 0 && c.ackedSegs >= c.totalSegs {
		c.done = true
		c.completedAt = c.eng.Now()
		if c.OnComplete != nil {
			c.OnComplete(c.completedAt)
		}
	}
}

// NoteFailed implements tcp.Coordinator: subflow r declared its path dead
// with unacked segments outstanding. The connection takes that data back —
// sentSegs drops so surviving subflows may send it afresh — and records the
// matching ack discount. A subflow that failed before with credit still
// unconsumed is only charged the delta, keeping the credit equal to the
// frozen range even across repeated fail/revive cycles.
func (c *Conn) NoteFailed(r int, unacked int64) {
	newCredit := unacked - c.ctl[r].reinjectCredit
	if newCredit < 0 {
		newCredit = 0
	}
	c.sentSegs -= newCredit
	c.ctl[r].reinjectCredit += newCredit
	c.reinjectedSegs += newCredit
	// Kick the survivors: the freed budget is theirs to claim right now.
	c.Start()
}

// ReinjectedSegs reports the total segments handed back by failing
// subflows for re-injection on survivors over the connection's lifetime.
func (c *Conn) ReinjectedSegs() int64 { return c.reinjectedSegs }

// SentSegs reports the distinct application segments currently charged to
// the connection: incremented once per new segment (never for
// retransmissions) and decremented when a failing subflow hands its unacked
// range back for re-injection. The conservation identity
// Σ_r MaxSent_r = SentSegs + ReinjectedSegs holds at every instant;
// internal/check asserts it.
func (c *Conn) SentSegs() int64 { return c.sentSegs }

// AckedSegs reports the segments counted as delivered at the connection
// level (acks consumed by re-injection credit excluded, so a segment
// delivered both by a revived subflow and by its re-injected copy counts
// once).
func (c *Conn) AckedSegs() int64 { return c.ackedSegs }

// AppendReinjectCredits appends the per-subflow re-injection credits to dst
// and returns the extended slice: the number of future acks on each subflow
// that will be discounted because the segments they cover were handed back
// at failure time.
func (c *Conn) AppendReinjectCredits(dst []int64) []int64 {
	for i := range c.ctl {
		dst = append(dst, c.ctl[i].reinjectCredit)
	}
	return dst
}

func (c *Conn) inflight() int64 {
	var sum int64
	for _, s := range c.subs {
		sum += s.Inflight()
	}
	return sum
}

// Produce makes bytes of application data available to an AppLimited
// connection and kicks the subflows so they pick it up immediately.
func (c *Conn) Produce(bytes int64) {
	c.producedSegs += (bytes + tcp.MSS - 1) / tcp.MSS
	c.Start()
}

// Subflows returns the connection's subflows.
func (c *Conn) Subflows() []*tcp.Subflow { return c.subs }

// Done reports whether a finite transfer has fully completed.
func (c *Conn) Done() bool { return c.done }

// CompletedAt returns the completion instant of a finite transfer (zero
// until Done).
func (c *Conn) CompletedAt() sim.Time { return c.completedAt }

// AckedBytes returns the goodput delivered so far in bytes.
func (c *Conn) AckedBytes() uint64 { return uint64(c.ackedSegs) * tcp.MSS }

// MeanThroughputBps returns the average goodput over [0, now] in bits per
// second (or over [0, completion] for finished transfers).
func (c *Conn) MeanThroughputBps() float64 {
	end := c.eng.Now()
	if c.done {
		end = c.completedAt
	}
	if end <= 0 {
		return 0
	}
	return float64(c.AckedBytes()) * 8 * float64(sim.Second) / float64(end)
}

// MeanSRTTSeconds returns the average smoothed RTT across subflows.
func (c *Conn) MeanSRTTSeconds() float64 {
	var sum float64
	for _, s := range c.subs {
		sum += s.SRTT().Seconds()
	}
	return sum / float64(len(c.subs))
}

var _ tcp.Coordinator = (*Conn)(nil)

// Package pathsel implements the energy-aware path-selection baseline the
// paper contrasts with congestion-control approaches (§II): schedulers in
// the style of Pluntke et al. (MobiArch 2011) and Lim et al.'s eMPTCP
// (CoNEXT 2015) estimate each interface's energy cost and suspend the
// expensive ones, saving energy at the price of aggregate bandwidth — the
// QoS loss the paper uses to motivate congestion-control designs instead.
package pathsel

import (
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
)

// Config parameterizes the selector.
type Config struct {
	// Period is how often paths are re-evaluated (default 1 s, matching
	// eMPTCP's decision epochs).
	Period sim.Time
	// Threshold suspends a path whose estimated energy per bit exceeds
	// the cheapest path's by this factor (default 1.5).
	Threshold float64
	// MinRateBps is the throughput below which a path's estimate is
	// treated as idle and the path given a chance (default 100 kb/s).
	MinRateBps float64
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = sim.Second
	}
	if c.Threshold == 0 {
		c.Threshold = 1.5
	}
	if c.MinRateBps == 0 {
		c.MinRateBps = 100e3
	}
	return c
}

// Selector periodically estimates each subflow's energy per bit from its
// interface power model and suspends paths that are too expensive
// relative to the cheapest one. The cheapest path always stays enabled.
type Selector struct {
	eng    *sim.Engine
	conn   *mptcp.Conn
	models []energy.Model // one per subflow, same order
	cfg    Config

	lastAcked []int64
	decisions int
	suspended int
	tickFn    func()
	stopped   bool
	timer     sim.Timer
}

// New creates a selector for conn; models[i] is the power model of
// subflow i's interface.
func New(eng *sim.Engine, conn *mptcp.Conn, models []energy.Model, cfg Config) *Selector {
	s := &Selector{
		eng:       eng,
		conn:      conn,
		models:    models,
		cfg:       cfg.withDefaults(),
		lastAcked: make([]int64, len(conn.Subflows())),
	}
	s.tickFn = s.tick
	return s
}

// Start begins periodic path evaluation.
func (s *Selector) Start() {
	s.timer = s.eng.After(s.cfg.Period, s.tickFn)
}

// Stop halts the selector and cancels its pending evaluation.
func (s *Selector) Stop() {
	s.stopped = true
	s.timer.Stop()
}

// Decisions reports how many evaluation rounds have run.
func (s *Selector) Decisions() int { return s.decisions }

// Suspensions reports how many path-suspension decisions were taken.
func (s *Selector) Suspensions() int { return s.suspended }

func (s *Selector) tick() {
	if s.stopped {
		return
	}
	s.decisions++
	costs := s.costs()

	cheapest := 0
	for r, c := range costs {
		if c < costs[cheapest] {
			cheapest = r
		}
	}
	for r := range costs {
		enable := r == cheapest || costs[r] <= costs[cheapest]*s.cfg.Threshold
		if !enable && s.conn.SubflowEnabled(r) {
			s.suspended++
		}
		s.conn.SetSubflowEnabled(r, enable)
	}
	s.timer = s.eng.After(s.cfg.Period, s.tickFn)
}

// costs estimates joules per bit for each subflow over the last period:
// the interface's power at the observed rate divided by that rate. Idle
// or suspended paths are probed with their power at MinRateBps, so a
// suspended path can win back its slot when conditions change.
func (s *Selector) costs() []float64 {
	subs := s.conn.Subflows()
	costs := make([]float64, len(subs))
	for r, sub := range subs {
		acked := sub.Acked()
		delta := acked - s.lastAcked[r]
		s.lastAcked[r] = acked
		rate := float64(delta) * 1448 * 8 / s.cfg.Period.Seconds()
		if rate < s.cfg.MinRateBps {
			rate = s.cfg.MinRateBps
		}
		p := s.models[r].Power(energy.Sample{
			ThroughputBps:  rate,
			Subflows:       1,
			MeanRTTSeconds: sub.SRTT().Seconds(),
		})
		costs[r] = p / rate
	}
	return costs
}

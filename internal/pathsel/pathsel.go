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

// The selector's fixed parameters.
const (
	// period is how often paths are re-evaluated, matching eMPTCP's
	// decision epochs.
	period = sim.Second
	// threshold suspends a path whose estimated energy per bit exceeds the
	// cheapest path's by this factor.
	threshold = 1.5
	// minRateBps is the throughput below which a path's estimate is treated
	// as idle and the path given a chance.
	minRateBps = 100e3
)

// Selector periodically estimates each subflow's energy per bit from its
// interface power model and suspends paths that are too expensive
// relative to the cheapest one. The cheapest path always stays enabled.
type Selector struct {
	conn   *mptcp.Conn
	models []energy.Model // one per subflow, same order
	probe  energy.Probe   // the connection's activity over the last period

	costs     []float64
	decisions int
	suspended int
	ticker    sim.Ticker
}

// New creates a selector for conn; models[i] is the power model of
// subflow i's interface.
func New(eng *sim.Engine, conn *mptcp.Conn, models []energy.Model) *Selector {
	s := &Selector{
		conn:   conn,
		models: models,
		probe:  energy.ConnProbe(conn),
		costs:  make([]float64, len(conn.Subflows())),
	}
	s.ticker = sim.MakeTicker(eng, period, s.tick)
	return s
}

// Start begins periodic path evaluation.
func (s *Selector) Start() { s.ticker.Start() }

// Stop halts the selector and cancels its pending evaluation.
func (s *Selector) Stop() { s.ticker.Stop() }

// Decisions reports how many evaluation rounds have run.
func (s *Selector) Decisions() int { return s.decisions }

func (s *Selector) tick() {
	s.decisions++
	costs := s.estimate()

	cheapest := 0
	for r, c := range costs {
		if c < costs[cheapest] {
			cheapest = r
		}
	}
	for r := range costs {
		enable := r == cheapest || costs[r] <= costs[cheapest]*threshold
		if !enable && s.conn.SubflowEnabled(r) {
			s.suspended++
		}
		s.conn.SetSubflowEnabled(r, enable)
	}
}

// estimate prices each subflow in joules per bit over the last period: the
// interface's power at the observed rate divided by that rate. Idle or
// suspended paths are probed with their power at minRateBps, so a suspended
// path can win back its slot when conditions change.
func (s *Selector) estimate() []float64 {
	for r, path := range s.probe(period).Paths {
		rate := max(path.ThroughputBps, minRateBps)
		p := s.models[r].Power(energy.Sample{
			ThroughputBps:  rate,
			Subflows:       1,
			MeanRTTSeconds: path.RTTSeconds,
		})
		s.costs[r] = p / rate
	}
	return s.costs
}

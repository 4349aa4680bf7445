// Package flows is the population-scale open-loop workload layer: arrival
// processes (Poisson and 2-state MMPP) drive the creation of short- and
// long-lived MPTCP flows with heavy-tailed sizes (bounded Pareto for web and
// bulk transfers, a bitrate-ladder streaming model for video sessions), and
// a Manager owns the full flow lifecycle on a shared engine — admission,
// pooled per-flow state, completion accounting and per-flow FCT/goodput/
// energy reporting.
//
// The layer is open-loop on purpose: offered load is drawn independently of
// the network's state, so it can exceed capacity. Robustness is therefore
// part of the contract — a deterministic admission controller sheds flows
// beyond Config.MaxConcurrent with per-class drop accounting, flows still
// alive when the run ends are cut and reported (never silently lost), and
// memory is bounded by peak concurrency, not by the number of flows offered:
// the Manager allocates nothing that scales with Config.TotalFlows. Per-flow
// samples (FCT, goodput, joules) leave through Config.Emit; a caller that
// wants exact percentiles collects them there.
//
// # What a flow reuses
//
// In steady state admit → finish costs one heap allocation (the completion
// closure). Three things are recycled:
//
//   - the per-flow record, a slot in a generation-counted slab (the engine's
//     timer idiom), so a stale handle in an old flow's timer closure can
//     never touch the slot's next tenant;
//   - the routes: Net.Paths is memoised by the topology, so every flow of a
//     host pair runs over the same *netem.Path values and draws its packets
//     from the pool the previous flow of that pair released them to;
//   - the connection: release retires it with mptcp.Conn.Close and puts it on
//     a free list, and the next admission rebuilds it in place with
//     Conn.Reset — the same code mptcp.New runs on a blank connection, so a
//     recycled connection is field for field a new one.
//
// # When a connection may be rebuilt
//
// Only when nothing in the simulation can still reach it. Once release has
// bumped the slot's generation, stopped the stream timers and unwatched the
// connection, the only references left are the simulation's own: packets in
// the network, addressed to a subflow or its receiver, and the subflows' RTO
// and probe deadlines in the engine. Close reads transport state, never the
// workload, and retires the connection only if every subflow is settled
// (tcp.Close): it never retransmitted, probed or failed over, and as many
// ACKs came home as segments went out. Every segment then went out exactly
// once and drew exactly one ACK, so none of its packets is in a queue or on
// a wire — whatever loss, reordering or outage the links applied to others —
// and nobody can make it send again. Close stops the deadlines, whose queued
// ticks could only have fired inert, so a retired connection owns no event
// and the next admission may rebuild it at once.
//
// A connection with a loss, a lost ACK or a failover behind it, a stream
// stopped or a flow cut with data in flight is not settled: Close touches
// nothing, and the connection finishes what it has in flight and is
// collected. Reuse is invisible to the simulation: no packet, timer or
// tie-break moves (TestPopulationsPinned, mptcp's TestResetEqualsNew, tcp's
// TestClosedMeansQuiescentForever).
//
// Deliberately not recycled: the congestion-control instance (one core.New
// per flow: the stateless algorithms, lia among them, are zero-size types
// that core.New builds without allocating, so a reset hook would save an
// admission nothing; a stateful one such as olia costs one allocation), and
// connections that are not settled — making those reusable would mean
// cancelling their packets and timers, which changes the event sequence.
//
// Every random draw comes from the engine's RNG in a fixed order, so a run
// is fully determined by its seed regardless of admission outcomes or
// worker count.
package flows

import (
	"math"

	"mptcpsim/internal/sim"
)

// Class labels a flow's workload family; it drives the size model and the
// per-class admission accounting.
type Class uint8

const (
	// Web is a short request/response transfer (bounded Pareto sizes with
	// a light minimum — the heavy web-object tail).
	Web Class = iota
	// Bulk is a large background transfer (bounded Pareto with a megabyte
	// floor).
	Bulk
	// Stream is a bitrate-ladder video session: an app-limited connection
	// producing chunks at the highest ladder rung the measured goodput
	// sustains, for an exponentially distributed session duration.
	Stream

	numClasses = 3
)

// String returns the class label used in records and summaries.
func (c Class) String() string {
	switch c {
	case Web:
		return "web"
	case Bulk:
		return "bulk"
	case Stream:
		return "stream"
	default:
		return "unknown"
	}
}

// rng is the narrow randomness surface the samplers draw from; the engine's
// *rand.Rand satisfies it.
type rng interface {
	Float64() float64
	Intn(n int) int
}

// SizeDist is a bounded Pareto flow-size distribution on [Min, Max] bytes
// with tail index Alpha. Heavy-tailed but bounded: the unbounded Pareto's
// infinite-mean pathologies would make offered-load accounting meaningless.
type SizeDist struct {
	Alpha    float64
	Min, Max int64
}

// Sample draws one flow size by inverting the bounded-Pareto CDF.
func (d SizeDist) Sample(r rng) int64 {
	if d.Min <= 0 || d.Max <= d.Min || d.Alpha <= 0 {
		return d.Min
	}
	u := r.Float64()
	lh := math.Pow(float64(d.Min)/float64(d.Max), d.Alpha)
	x := float64(d.Min) / math.Pow(1-u*(1-lh), 1/d.Alpha)
	if x > float64(d.Max) {
		x = float64(d.Max)
	}
	return int64(x)
}

// Arrivals is a session arrival process: Next returns the gap until the
// next arrival, drawing from the given RNG. Implementations may carry
// state (MMPP2's modulating chain), so one instance belongs to one Manager.
type Arrivals interface {
	Next(r rng) sim.Time
}

// Poisson is a homogeneous Poisson arrival process with the given rate in
// flows per second: independent exponential inter-arrival gaps.
type Poisson struct {
	Rate float64 // arrivals per second
}

// Next draws one exponential gap.
func (p Poisson) Next(r rng) sim.Time {
	if p.Rate <= 0 {
		return sim.Time(math.MaxInt64 / 4)
	}
	return expDraw(r, sim.Time(float64(sim.Second)/p.Rate))
}

// MMPP2 is a 2-state Markov-modulated Poisson process: arrivals are Poisson
// at RateLow or RateHigh flows per second depending on the current state,
// and the state sojourns are exponential with the given means. It models
// arrival storms — bursts of RateHigh arrivals against a RateLow baseline.
// The zero state is low; the chain advances as gaps are drawn.
type MMPP2 struct {
	RateLow, RateHigh float64  // arrivals per second, per state
	MeanLow, MeanHigh sim.Time // mean state sojourn

	high    bool
	sojourn sim.Time // time left in the current state
}

// Next draws the gap to the next arrival, advancing the modulating chain
// through however many state changes the gap spans.
func (m *MMPP2) Next(r rng) sim.Time {
	var total sim.Time
	for i := 0; ; i++ {
		rate, mean := m.RateLow, m.MeanLow
		if m.high {
			rate, mean = m.RateHigh, m.MeanHigh
		}
		if mean <= 0 {
			mean = sim.Second
		}
		if m.sojourn <= 0 {
			m.sojourn = expDraw(r, mean)
		}
		var gap sim.Time
		if rate > 0 {
			gap = expDraw(r, sim.Time(float64(sim.Second)/rate))
		} else {
			gap = m.sojourn // silent state: skip straight to the flip
		}
		if gap < m.sojourn {
			m.sojourn -= gap
			return total + gap
		}
		total += m.sojourn
		m.sojourn = 0
		m.high = !m.high
		if i > 1<<20 { // both states silent: give up instead of spinning
			return total + sim.Time(math.MaxInt64/4)
		}
	}
}

// expDraw draws an exponential duration with the given mean.
func expDraw(r rng, mean sim.Time) sim.Time {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sim.Time(float64(mean) * -math.Log(u))
}

// StreamConfig parameterizes the Stream class: a DASH-like session that
// produces chunks at one of the ladder's bitrates, stepping to the highest
// rung the measured goodput sustains (with a safety margin, as real ABR
// players do), for an exponentially distributed session duration.
type StreamConfig struct {
	// Ladder is the ascending bitrate ladder in bits per second.
	Ladder []int64
	// Chunk is the chunk duration; every chunk the session produces
	// Chunk×rate bits and re-evaluates the rung.
	Chunk sim.Time
	// MeanDur is the mean session duration (exponential draw, floored at
	// one chunk).
	MeanDur sim.Time
}

// withDefaults fills the zero values with a small 3-rung ladder, 1-second
// chunks and 8-second mean sessions.
func (s StreamConfig) withDefaults() StreamConfig {
	if len(s.Ladder) == 0 {
		s.Ladder = []int64{500e3, 1500e3, 4000e3}
	}
	if s.Chunk <= 0 {
		s.Chunk = sim.Second
	}
	if s.MeanDur <= 0 {
		s.MeanDur = 8 * sim.Second
	}
	return s
}

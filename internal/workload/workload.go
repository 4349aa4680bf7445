// Package workload provides the traffic generators of the paper's
// evaluation: unresponsive cross traffic with Pareto-distributed bursts
// (the Fig. 5b / Fig. 7-9 scenario generator), constant-bit-rate sources,
// and permutation traffic matrices for the datacenter experiments. A
// generator takes only its route and rate: packets are tcp.WireSize bytes,
// and the burst process's mean gap, mean burst and shape are the paper's
// constants.
package workload

import (
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// Sink is a packet endpoint that counts what arrives.
type Sink struct {
	Pkts  uint64
	Bytes uint64
}

// Receive implements netem.Endpoint.
func (s *Sink) Receive(p *netem.Packet) {
	s.Pkts++
	s.Bytes += uint64(p.Size)
	p.Release()
}

var _ netem.Endpoint = (*Sink)(nil)

// source is what both generators are built on: it injects full-size
// (tcp.WireSize) packets into a route, one per emit, and counts them.
type source struct {
	eng   *sim.Engine
	route []*netem.Link
	sink  *Sink
	pool  netem.Pool
	sent  uint64
}

func (s *source) emit() {
	p := s.pool.Get()
	p.Size = tcp.WireSize
	p.SentAt = s.eng.Now()
	p.SetRoute(s.route, s.sink)
	p.Send()
	s.sent++
}

// Sent reports packets injected so far.
func (s *source) Sent() uint64 { return s.sent }

// pktInterval is the packet clock of a source sending tcp.WireSize-byte
// packets at rateBps.
func pktInterval(rateBps int64) sim.Time {
	return sim.Time(int64(tcp.WireSize) * 8 * int64(sim.Second) / rateBps)
}

// CBR injects full-size packets at a constant bit rate into a route.
type CBR struct {
	source
	ticker sim.Ticker
}

// NewCBR creates a constant-bit-rate source over the given links.
func NewCBR(eng *sim.Engine, route []*netem.Link, rateBps int64) *CBR {
	c := &CBR{source: source{eng: eng, route: route, sink: &Sink{}}}
	c.ticker = sim.MakeTicker(eng, pktInterval(rateBps), c.emit)
	return c
}

// Start begins transmission with a packet now; on a running source it is a
// no-op.
func (c *CBR) Start() { c.ticker.StartNow() }

// Stop halts transmission and cancels the pending emit event.
func (c *CBR) Stop() { c.ticker.Stop() }

// ParetoOnOff is the paper's bursty cross-traffic generator (§VI-B): the
// source alternates Off and On periods; Off durations are exponential with
// mean paretoMeanOff (bursts "occur at random intervals"), On durations are
// Pareto-distributed with mean paretoMeanOn and shape paretoShape, and
// during On it transmits at a fixed rate.
type ParetoOnOff struct {
	source

	active   bool
	onTime   sim.Time
	burstEnd sim.Time // the current burst's packet clock is inert from here on

	// What the generator has queued, all cancelled by Stop: the pending
	// Off-gap, the current burst's packet clock, and its end event. A live
	// gap timer would otherwise fire a whole post-Stop burst.
	gapTimer sim.Timer
	ticker   sim.Ticker
	endTimer sim.Timer
}

// The paper's burst process: a mean gap of 10 s, a mean burst of 5 s and
// Pareto shape 1.5.
const (
	paretoMeanOff = 10 * sim.Second
	paretoMeanOn  = 5 * sim.Second
	paretoShape   = 1.5
)

// NewParetoOnOff creates the generator over the given links, bursting at
// rateBps.
func NewParetoOnOff(eng *sim.Engine, route []*netem.Link, rateBps int64) *ParetoOnOff {
	p := &ParetoOnOff{source: source{eng: eng, route: route, sink: &Sink{}}}
	p.ticker = sim.MakeTicker(eng, pktInterval(rateBps), p.tick)
	return p
}

// Start begins the Off/On cycle (starting Off); on a running generator it is
// a no-op.
func (p *ParetoOnOff) Start() {
	if !p.active && !p.gapTimer.Active() {
		p.scheduleOn()
	}
}

// Stop halts the generator and cancels its pending events, so a stopped
// source neither bursts again nor keeps the event queue populated.
func (p *ParetoOnOff) Stop() {
	p.active = false
	p.gapTimer.Stop()
	p.ticker.Stop()
	p.endTimer.Stop()
}

// Active reports whether a burst is in progress.
func (p *ParetoOnOff) Active() bool { return p.active }

func (p *ParetoOnOff) scheduleOn() {
	p.gapTimer = p.eng.After(p.expDuration(paretoMeanOff), p.burst)
}

func (p *ParetoOnOff) burst() {
	dur := p.paretoDuration()
	p.active = true
	p.onTime += dur
	p.burstEnd = p.eng.Now() + dur
	p.ticker.StartNow()
	p.endTimer = p.eng.At(p.burstEnd, p.endBurst)
}

// tick is the burst's packet clock. A tick that lands on the burst's end
// ahead of the end event sends nothing.
func (p *ParetoOnOff) tick() {
	if p.eng.Now() < p.burstEnd {
		p.emit()
	}
}

func (p *ParetoOnOff) endBurst() {
	p.active = false
	p.ticker.Stop()
	p.scheduleOn()
}

// expDuration draws an exponential duration with the given mean.
func (p *ParetoOnOff) expDuration(mean sim.Time) sim.Time {
	u := p.eng.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sim.Time(float64(mean) * -math.Log(u))
}

// paretoDuration draws a Pareto duration with mean paretoMeanOn and shape
// paretoShape: scale = mean·(shape-1)/shape.
func (p *ParetoOnOff) paretoDuration() sim.Time {
	shape := paretoShape // a variable, so each step rounds as it always has
	scale := float64(paretoMeanOn) * (shape - 1) / shape
	u := p.eng.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sim.Time(scale / math.Pow(u, 1/shape))
}

// Permutation returns a random permutation of n hosts with no fixed points
// (every host sends to a different host), drawn from the engine's RNG.
func Permutation(eng *sim.Engine, n int) []int {
	if n < 2 {
		return nil
	}
	perm := eng.Rand().Perm(n)
	// Repair fixed points by swapping with a neighbour.
	for i, v := range perm {
		if v == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}

// Package workload provides the traffic generators of the paper's
// evaluation: unresponsive cross traffic with Pareto-distributed bursts
// (the Fig. 5b / Fig. 7-9 scenario generator), constant-bit-rate sources,
// and permutation traffic matrices for the datacenter experiments.
package workload

import (
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
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

// CBR injects fixed-size packets at a constant bit rate into a route.
type CBR struct {
	eng     *sim.Engine
	route   []*netem.Link
	sink    *Sink
	pool    netem.Pool
	rate    int64
	pktSize int
	sent    uint64
	stopped bool
	timer   sim.Timer
}

// NewCBR creates a constant-bit-rate source over the given links.
func NewCBR(eng *sim.Engine, route []*netem.Link, rateBps int64, pktSize int) *CBR {
	if pktSize <= 0 {
		pktSize = 1500
	}
	return &CBR{eng: eng, route: route, sink: &Sink{}, rate: rateBps, pktSize: pktSize}
}

// Start begins transmission.
func (c *CBR) Start() { c.emit() }

// Stop halts transmission and cancels the pending emit event.
func (c *CBR) Stop() {
	c.stopped = true
	c.timer.Stop()
}

// Sent reports packets injected.
func (c *CBR) Sent() uint64 { return c.sent }

// Delivered reports packets that survived to the sink.
func (c *CBR) Delivered() uint64 { return c.sink.Pkts }

func (c *CBR) interval() sim.Time {
	return sim.Time(int64(c.pktSize) * 8 * int64(sim.Second) / c.rate)
}

func (c *CBR) emit() {
	if c.stopped {
		return
	}
	p := c.pool.Get()
	p.Size = int32(c.pktSize)
	p.SentAt = c.eng.Now()
	p.SetRoute(c.route, c.sink)
	p.Send()
	c.sent++
	c.timer = c.eng.After(c.interval(), c.emit)
}

// ParetoOnOff is the paper's bursty cross-traffic generator (§VI-B): the
// source alternates Off and On periods; Off durations are exponential with
// the given mean (bursts "occur at random intervals"), On durations are
// Pareto-distributed with the given mean, and during On it transmits at a
// fixed rate.
type ParetoOnOff struct {
	eng     *sim.Engine
	route   []*netem.Link
	sink    *Sink
	pool    netem.Pool
	rate    int64
	pktSize int

	meanOff sim.Time
	meanOn  sim.Time
	shape   float64

	active  bool
	stopped bool
	sent    uint64
	onTime  sim.Time

	// Live timer handles, cancelled by Stop: the pending Off-gap, the
	// current burst's tick chain, and the current burst's end event. A
	// stopped generator must leave nothing in the event heap — a live gap
	// timer would otherwise fire a whole post-Stop burst.
	gapTimer  sim.Timer
	tickTimer sim.Timer
	endTimer  sim.Timer
}

// ParetoConfig parameterizes the generator; zero values take the paper's
// settings (45 Mb/s bursts, mean gap 10 s, mean burst 5 s, shape 1.5).
type ParetoConfig struct {
	RateBps int64
	PktSize int
	MeanOff sim.Time
	MeanOn  sim.Time
	Shape   float64
}

// NewParetoOnOff creates the generator over the given links.
func NewParetoOnOff(eng *sim.Engine, route []*netem.Link, cfg ParetoConfig) *ParetoOnOff {
	if cfg.RateBps == 0 {
		cfg.RateBps = 45 * netem.Mbps
	}
	if cfg.PktSize == 0 {
		cfg.PktSize = 1500
	}
	if cfg.MeanOff == 0 {
		cfg.MeanOff = 10 * sim.Second
	}
	if cfg.MeanOn == 0 {
		cfg.MeanOn = 5 * sim.Second
	}
	if cfg.Shape == 0 {
		cfg.Shape = 1.5
	}
	return &ParetoOnOff{
		eng:     eng,
		route:   route,
		sink:    &Sink{},
		rate:    cfg.RateBps,
		pktSize: cfg.PktSize,
		meanOff: cfg.MeanOff,
		meanOn:  cfg.MeanOn,
		shape:   cfg.Shape,
	}
}

// Start begins the Off/On cycle (starting Off).
func (p *ParetoOnOff) Start() { p.scheduleOn() }

// Stop halts the generator and cancels its pending events, so a stopped
// source neither bursts again nor keeps the event heap populated.
func (p *ParetoOnOff) Stop() {
	p.stopped = true
	p.active = false
	p.gapTimer.Stop()
	p.tickTimer.Stop()
	p.endTimer.Stop()
}

// Active reports whether a burst is in progress.
func (p *ParetoOnOff) Active() bool { return p.active }

// Sent reports packets injected so far.
func (p *ParetoOnOff) Sent() uint64 { return p.sent }

// OnTime reports the cumulative burst duration so far.
func (p *ParetoOnOff) OnTime() sim.Time { return p.onTime }

func (p *ParetoOnOff) scheduleOn() {
	if p.stopped {
		return
	}
	gap := p.expDuration(p.meanOff)
	p.gapTimer = p.eng.After(gap, p.burst)
}

func (p *ParetoOnOff) burst() {
	if p.stopped {
		return
	}
	dur := p.paretoDuration()
	p.active = true
	p.onTime += dur
	end := p.eng.Now() + dur
	interval := sim.Time(int64(p.pktSize) * 8 * int64(sim.Second) / p.rate)
	// One emit closure per burst, reused along the whole chain (the old code
	// allocated one per packet). Each burst's chain captures its own end, so
	// a straggler tick from a finished burst stays inert even if the next
	// burst has already begun.
	var tick func()
	tick = func() {
		if p.stopped || p.eng.Now() >= end {
			return
		}
		pkt := p.pool.Get()
		pkt.Size = int32(p.pktSize)
		pkt.SentAt = p.eng.Now()
		pkt.SetRoute(p.route, p.sink)
		pkt.Send()
		p.sent++
		p.tickTimer = p.eng.After(interval, tick)
	}
	tick()
	p.endTimer = p.eng.At(end, func() {
		p.active = false
		p.scheduleOn()
	})
}

// expDuration draws an exponential duration with the given mean.
func (p *ParetoOnOff) expDuration(mean sim.Time) sim.Time {
	u := p.eng.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sim.Time(float64(mean) * -math.Log(u))
}

// paretoDuration draws a Pareto duration with the configured mean and
// shape: scale = mean·(shape-1)/shape.
func (p *ParetoOnOff) paretoDuration() sim.Time {
	scale := float64(p.meanOn) * (p.shape - 1) / p.shape
	u := p.eng.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sim.Time(scale / math.Pow(u, 1/p.shape))
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

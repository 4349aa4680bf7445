// Package faults provides deterministic, engine-driven fault injection for
// netem links and paths: one-shot outages, periodic flapping, step changes
// of loss, rate and delay, and mobility ramps that degrade rate/delay over
// a window (the WiFi↔cellular handover of the paper's
// heterogeneous-wireless evaluation). Every state change runs as a
// simulation event on the run's engine, so runs with fault schedules stay
// byte-for-byte reproducible under a fixed seed.
package faults

import (
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Fault is one composable element of a fault schedule. Schedule installs
// the fault's events on eng; every event acts on all of links.
type Fault interface {
	Schedule(eng *sim.Engine, links []*netem.Link)
}

// PathLinks returns the links a path-level fault acts on: both directions.
// A dead medium silences ACKs as well as data, which is what forces the
// sender onto its retransmission timer and, eventually, failover.
func PathLinks(p *netem.Path) []*netem.Link {
	out := make([]*netem.Link, 0, len(p.Forward)+len(p.Reverse))
	out = append(out, p.Forward...)
	return append(out, p.Reverse...)
}

// Apply schedules faults against every link of p, both directions.
func Apply(eng *sim.Engine, p *netem.Path, fs ...Fault) {
	links := PathLinks(p)
	for _, f := range fs {
		f.Schedule(eng, links)
	}
}

// ApplyLinks schedules faults against an explicit link set (e.g. forward
// direction only).
func ApplyLinks(eng *sim.Engine, links []*netem.Link, fs ...Fault) {
	for _, f := range fs {
		f.Schedule(eng, links)
	}
}

// Outage takes the links down at Down and, if Up > Down, back up at Up.
// Up <= Down leaves them down for the rest of the run.
type Outage struct {
	Down sim.Time
	Up   sim.Time
}

// Schedule implements Fault.
func (o Outage) Schedule(eng *sim.Engine, links []*netem.Link) {
	eng.Schedule(o.Down, func() {
		for _, l := range links {
			l.SetDown()
		}
	})
	if o.Up > o.Down {
		eng.Schedule(o.Up, func() {
			for _, l := range links {
				l.SetUp()
			}
		})
	}
}

// LinkUp brings the links up at At (pairs with a prior permanent Outage,
// or is a no-op on links already up).
type LinkUp struct {
	At sim.Time
}

// Schedule implements Fault.
func (u LinkUp) Schedule(eng *sim.Engine, links []*netem.Link) {
	eng.Schedule(u.At, func() {
		for _, l := range links {
			l.SetUp()
		}
	})
}

// Flap cycles the links down/up: each cycle starting at Start+k*Period
// holds the links down for DownFor, then up for the rest of the Period.
// Count bounds the number of cycles; 0 flaps for the whole run (cycles are
// scheduled lazily, so an unbounded flap only generates events up to the
// engine's horizon).
type Flap struct {
	Start   sim.Time
	Period  sim.Time
	DownFor sim.Time
	Count   int
}

// Schedule implements Fault.
func (f Flap) Schedule(eng *sim.Engine, links []*netem.Link) {
	if f.Period <= 0 || f.DownFor <= 0 || f.DownFor >= f.Period {
		return
	}
	cycle := 0
	var flap sim.Ticker
	flap = sim.MakeTicker(eng, f.Period, func() {
		for _, l := range links {
			l.SetDown()
		}
		eng.ScheduleAfter(f.DownFor, func() {
			for _, l := range links {
				l.SetUp()
			}
		})
		cycle++
		if f.Count > 0 && cycle >= f.Count {
			flap.Stop()
		}
	})
	eng.Schedule(f.Start, flap.StartNow)
}

// Ramp linearly interpolates the links' rate and/or delay from their values
// at Start to the given targets over [Start, Start+Duration], in Steps
// steps — a mobility model: a radio link degrading (or recovering) as the
// user moves, the paper's handover scenario. Zero targets leave that knob
// untouched.
type Ramp struct {
	Start    sim.Time
	Duration sim.Time
	Steps    int      // default 20
	RateTo   int64    // target line rate; 0 = keep
	DelayTo  sim.Time // target one-way delay; 0 = keep
}

// Schedule implements Fault.
func (r Ramp) Schedule(eng *sim.Engine, links []*netem.Link) {
	steps := r.Steps
	if steps <= 0 {
		steps = 20
	}
	if r.Duration <= 0 || (r.RateTo <= 0 && r.DelayTo <= 0) {
		return
	}
	eng.Schedule(r.Start, func() {
		rate0 := make([]int64, len(links))
		delay0 := make([]sim.Time, len(links))
		for i, l := range links {
			rate0[i] = l.Rate()
			delay0[i] = l.Delay()
		}
		for s := 1; s <= steps; s++ {
			frac := float64(s) / float64(steps)
			at := r.Start + sim.Time(float64(r.Duration)*frac)
			eng.Schedule(at, func() {
				for i, l := range links {
					if r.RateTo > 0 {
						rate := rate0[i] + int64(float64(r.RateTo-rate0[i])*frac)
						if rate < 1 {
							rate = 1
						}
						l.SetRate(rate)
					}
					if r.DelayTo > 0 {
						l.SetDelay(delay0[i] + sim.Time(float64(r.DelayTo-delay0[i])*frac))
					}
				}
			})
		}
	})
}

// SetLoss sets the loss probability at an instant (a one-shot degradation).
type SetLoss struct {
	At   sim.Time
	Prob float64
}

// Schedule implements Fault.
func (s SetLoss) Schedule(eng *sim.Engine, links []*netem.Link) {
	eng.Schedule(s.At, func() {
		for _, l := range links {
			l.SetLossProb(s.Prob)
		}
	})
}

// SetRate sets the line rate at an instant.
type SetRate struct {
	At   sim.Time
	Rate int64
}

// Schedule implements Fault.
func (s SetRate) Schedule(eng *sim.Engine, links []*netem.Link) {
	if s.Rate <= 0 {
		return
	}
	eng.Schedule(s.At, func() {
		for _, l := range links {
			l.SetRate(s.Rate)
		}
	})
}

// SetDelay sets the one-way propagation delay at an instant.
type SetDelay struct {
	At    sim.Time
	Delay sim.Time
}

// Schedule implements Fault.
func (s SetDelay) Schedule(eng *sim.Engine, links []*netem.Link) {
	eng.Schedule(s.At, func() {
		for _, l := range links {
			l.SetDelay(s.Delay)
		}
	})
}

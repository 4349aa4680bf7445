// Package trace provides labelled-event timelines and rate estimation for
// simulation runs. (Sampled time series live in internal/obsv.)
package trace

import (
	"mptcpsim/internal/sim"
)

// Event is one labelled instant on a Timeline.
type Event struct {
	T     sim.Time
	Label string
}

// Timeline records labelled state transitions over a run — e.g. a subflow
// going active → dead → probing → active as its path fails and heals.
type Timeline struct {
	Events []Event
}

// Add appends an event.
func (tl *Timeline) Add(t sim.Time, label string) {
	tl.Events = append(tl.Events, Event{T: t, Label: label})
}

// Len reports the number of recorded events.
func (tl *Timeline) Len() int { return len(tl.Events) }

// RateMeter turns a running byte count into a throughput estimate. A sampler
// (the energy meter) calls Sample periodically; the meter reports the rate
// over the elapsed window and keeps an EWMA for smoothing.
type RateMeter struct {
	eng *sim.Engine

	bytes      uint64 // since last sample
	totalBytes uint64
	lastSample sim.Time
	ewma       float64
	alpha      float64
	hasSample  bool
}

// NewRateMeter creates a meter with EWMA smoothing factor alpha in (0, 1];
// alpha of 1 disables smoothing.
func NewRateMeter(eng *sim.Engine, alpha float64) *RateMeter {
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	return &RateMeter{eng: eng, alpha: alpha, lastSample: eng.Now()}
}

// Count records bytes transferred at the current instant.
func (m *RateMeter) Count(bytes int) {
	m.bytes += uint64(bytes)
	m.totalBytes += uint64(bytes)
}

// TotalBytes reports all bytes ever counted.
func (m *RateMeter) TotalBytes() uint64 { return m.totalBytes }

// Sample closes the current window and returns the smoothed rate in bits per
// second. A zero-width window (a second call at the same instant) does not
// close anything: the window stays open, bytes counted since the last real
// sample keep accumulating into it, and the current smoothed EWMA estimate —
// not the previous window's raw rate — is returned unchanged.
func (m *RateMeter) Sample() float64 {
	now := m.eng.Now()
	dt := now - m.lastSample
	if dt <= 0 {
		return m.ewma
	}
	inst := float64(m.bytes) * 8 * float64(sim.Second) / float64(dt)
	m.bytes = 0
	m.lastSample = now
	if !m.hasSample {
		m.ewma = inst
		m.hasSample = true
	} else {
		m.ewma = m.alpha*inst + (1-m.alpha)*m.ewma
	}
	return m.ewma
}

// Rate returns the current smoothed estimate without closing the window.
func (m *RateMeter) Rate() float64 { return m.ewma }

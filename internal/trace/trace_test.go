package trace

import (
	"math"
	"testing"

	"mptcpsim/internal/sim"
)

func TestRateMeterExactRate(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewRateMeter(eng, 1) // no smoothing
	// 1250 bytes over 1 ms = 10 Mb/s.
	eng.At(sim.Millisecond, func() {
		m.Count(1250)
		if got := m.Sample(); math.Abs(got-10e6) > 1 {
			t.Errorf("rate = %v, want 10e6", got)
		}
	})
	eng.Drain()
	if m.TotalBytes() != 1250 {
		t.Errorf("TotalBytes = %d, want 1250", m.TotalBytes())
	}
}

func TestRateMeterZeroWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewRateMeter(eng, 1)
	eng.At(sim.Millisecond, func() {
		m.Count(1250)
		first := m.Sample()
		second := m.Sample() // same instant: returns previous estimate
		if first != second {
			t.Errorf("same-instant Sample changed estimate: %v vs %v", first, second)
		}
	})
	eng.Drain()
}

func TestRateMeterSameInstantSemantics(t *testing.T) {
	// Pins Sample's zero-width-window behavior: the window stays open,
	// bytes counted at the same instant roll into the next real window, and
	// the returned value is the smoothed EWMA — not the last raw rate.
	eng := sim.NewEngine(1)
	m := NewRateMeter(eng, 0.5)
	eng.At(sim.Millisecond, func() {
		m.Count(1250) // 10 Mb/s window seeds the EWMA
		if got := m.Sample(); math.Abs(got-10e6) > 1 {
			t.Fatalf("seed sample = %v, want 10e6", got)
		}
		m.Count(1250) // counted at the sample instant: pends for the next window
		if got := m.Sample(); math.Abs(got-10e6) > 1 {
			t.Errorf("same-instant Sample = %v, want unchanged EWMA 10e6", got)
		}
	})
	eng.At(2*sim.Millisecond, func() {
		// The pending 1250 bytes over 1 ms are a 10 Mb/s instantaneous rate;
		// EWMA with alpha 0.5 stays at 10 Mb/s. Had the same-instant Sample
		// dropped them, this window would read 0 and the EWMA 5 Mb/s.
		if got := m.Sample(); math.Abs(got-10e6) > 1 {
			t.Errorf("next window = %v, want 10e6 (same-instant bytes lost?)", got)
		}
	})
	eng.Drain()
}

func TestRateMeterEWMA(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewRateMeter(eng, 0.5)
	eng.At(sim.Millisecond, func() {
		m.Count(1250) // 10 Mb/s window
		m.Sample()    // first sample seeds the EWMA
	})
	eng.At(2*sim.Millisecond, func() {
		// idle window: instantaneous 0, EWMA halves.
		if got := m.Sample(); math.Abs(got-5e6) > 1 {
			t.Errorf("EWMA after idle window = %v, want 5e6", got)
		}
	})
	eng.Drain()
}

func TestRateMeterBadAlphaDefaultsToOne(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewRateMeter(eng, -3)
	eng.At(sim.Millisecond, func() {
		m.Count(125)
		if got := m.Sample(); math.Abs(got-1e6) > 1 {
			t.Errorf("rate = %v, want 1e6 with alpha clamped to 1", got)
		}
	})
	eng.Drain()
}

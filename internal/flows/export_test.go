package flows

import (
	"math"
	"mptcpsim/internal/sim"
)

// Classes lists the classes in declaration order, for deterministic
// iteration over per-class accounting.
func Classes() [numClasses]Class { return [numClasses]Class{Web, Bulk, Stream} }

// Mean returns the distribution's analytic mean, for sizing offered load.
func (d SizeDist) Mean() float64 {
	if d.Min <= 0 || d.Max <= d.Min || d.Alpha <= 0 {
		return float64(d.Min)
	}
	a, l, h := d.Alpha, float64(d.Min), float64(d.Max)
	if a == 1 {
		return l * math.Log(h/l) / (1 - l/h)
	}
	lh := math.Pow(l/h, a)
	return math.Pow(l, a) / (1 - lh) * a / (a - 1) * (1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

// SlotsAllocated reports how many pooled flow slots exist — bounded by peak
// concurrency, never by TotalFlows (the memory-boundedness tests pin this).
func (m *Manager) SlotsAllocated() int { return len(m.slots) }

// MustNew is New for known-good configurations; it panics on error.
func MustNew(eng *sim.Engine, net Net, cfg Config) *Manager {
	m, err := New(eng, net, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

package trace

import (
	"testing"

	"mptcpsim/internal/sim"
)

func TestRateMeterTotalAcrossWindows(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewRateMeter(eng, 1)
	for i := 1; i <= 5; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Millisecond, func() {
			m.Count(1000)
			m.Sample()
		})
	}
	eng.Drain()
	if m.TotalBytes() != 5000 {
		t.Errorf("TotalBytes = %d, want 5000", m.TotalBytes())
	}
}

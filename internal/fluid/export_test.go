package fluid

import "fmt"

// Integrate advances the system from x0 with classic RK4 for steps of
// size dt and returns the final state. Rates are floored at 1e-6 packets/s
// after every step: a flow never fully disappears.
func (s *System) Integrate(x0 []float64, dt float64, steps int) []float64 {
	x := make([]float64, len(x0))
	copy(x, x0)
	s.integrate(x, dt, steps, newRK4(len(x)))
	return x
}

// String formats a rate vector for diagnostics.
func String(x []float64) string {
	out := "["
	for i, v := range x {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.1f", v)
	}
	return out + "]"
}

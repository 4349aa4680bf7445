package core

import (
	"math"
	"math/rand"
	"testing"
)

// refAlpha is OLIA's α_r as it was written before the hot path stopped
// allocating: membership of B and M materialized as two []bool per call.
// alpha must return the same bits.
func refAlpha(o *OLIA, flows []View, r int) float64 {
	o.grow(len(flows))
	n := float64(len(flows))

	var bestProxy, maxW float64
	for k, f := range flows {
		if f.SRTT <= 0 {
			continue
		}
		l := o.interLoss(k)
		if p := l * l / f.SRTT; p > bestProxy {
			bestProxy = p
		}
		if f.Cwnd > maxW {
			maxW = f.Cwnd
		}
	}
	const tol = 1e-9
	var nBnotM, nM int
	inB := make([]bool, len(flows))
	inM := make([]bool, len(flows))
	for k, f := range flows {
		if f.SRTT <= 0 {
			continue
		}
		l := o.interLoss(k)
		inB[k] = l*l/f.SRTT >= bestProxy*(1-tol)
		inM[k] = f.Cwnd >= maxW*(1-tol)
		if inM[k] {
			nM++
		}
		if inB[k] && !inM[k] {
			nBnotM++
		}
	}
	if nBnotM == 0 {
		return 0
	}
	switch {
	case inB[r] && !inM[r]:
		return 1 / (n * float64(nBnotM))
	case inM[r]:
		return -1 / (n * float64(nM))
	default:
		return 0
	}
}

func TestOLIAAlphaMatchesReference(t *testing.T) {
	// Small value sets so that ties in the rate proxy and in the window —
	// where the 1e-9 tolerance decides membership — and paths without an
	// RTT sample are common.
	cwnds := []float64{1, 4, 10, 10 * (1 - 5e-10), 10 * (1 - 2e-9), 37.5}
	rtts := []float64{0, 0.01, 0.04, 0.04 * (1 + 5e-10), 0.2}
	losses := []float64{0, 0, 50, 200, 200}
	rng := rand.New(rand.NewSource(1))
	var nonzero int
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(5)
		flows := make([]View, n)
		o := NewOLIA()
		o.grow(n)
		for k := range flows {
			flows[k] = View{Cwnd: cwnds[rng.Intn(len(cwnds))], SRTT: rtts[rng.Intn(len(rtts))]}
			o.paths[k] = oliaPathState{
				sinceLoss:    losses[rng.Intn(len(losses))],
				lastInterval: losses[rng.Intn(len(losses))],
			}
		}
		for r := range flows {
			got, want := o.alpha(flows, r), refAlpha(o, flows, r)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha(%+v, %d) with %+v = %v, reference %v", flows, r, o.paths, got, want)
			}
			if want != 0 {
				nonzero++
			}
		}
	}
	if nonzero < 1000 {
		t.Errorf("only %d non-zero α values; the generator no longer exercises B∖M", nonzero)
	}
}

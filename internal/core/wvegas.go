package core

// wVegas — weighted Vegas (Cao, Xu & Fu, ICNP 2012) — is the delay-based
// algorithm of the paper's model with step size δ = 1: it adjusts each
// subflow's window once per RTT round toward a per-path queueing backlog
// target α_r = weight_r·totalAlpha, where the weights track each subflow's
// share of the aggregate rate. λ_r is the delay-based path price
// q_r = RTT_r − baseRTT_r.

const (
	wvegasTotalAlpha = 10.0 // packets of queue backlog budget, per the paper
	wvegasGamma      = 1.0  // slow-start exit threshold (packets of backlog)
	wvegasWeightGain = 0.5  // EWMA gain for the rate-share weights
)

// WVegas implements weighted Vegas.
type WVegas struct {
	// weights is the rate-share weight vector; its sum is held at exactly 1
	// over the live subflows (renormalized on every membership change and
	// preserved by the EWMA update, which averages toward shares that
	// themselves sum to 1). down marks subflows whose path was declared
	// dead; their weight is pinned at 0 until the path revives.
	weights []float64
	down    []bool
}

// NewWVegas returns a wVegas instance.
func NewWVegas() *WVegas { return &WVegas{} }

// Name implements Algorithm.
func (*WVegas) Name() string { return "wvegas" }

// Increase implements Algorithm. wVegas does not react per ACK in
// congestion avoidance; all adjustment happens in OnRound.
func (*WVegas) Increase(flows []View, r int) float64 { return 0 }

// Decrease implements Algorithm: packet loss still halves the window.
func (*WVegas) Decrease(flows []View, r int) float64 { return flows[r].Cwnd / 2 }

// diff returns the Vegas backlog estimate for subflow r in packets:
// w_r·(RTT_r − baseRTT_r)/RTT_r.
func (*WVegas) diff(f View) float64 {
	rtt := f.LastRTT
	if rtt <= 0 {
		rtt = f.SRTT
	}
	if rtt <= 0 || f.BaseRTT <= 0 {
		return 0
	}
	q := rtt - f.BaseRTT
	if q < 0 {
		q = 0
	}
	return f.Cwnd * q / rtt
}

// ensure grows the weight vector to n subflows; newcomers enter with an
// equal share and the whole vector is renormalized back to Σ = 1.
func (v *WVegas) ensure(n int) {
	if len(v.weights) >= n {
		return
	}
	for len(v.weights) < n {
		v.weights = append(v.weights, 1/float64(n))
		v.down = append(v.down, false)
	}
	v.renormalize()
}

// renormalize pins dead subflows at weight 0 and rescales the live ones to
// sum to exactly 1. If every live weight is 0 (e.g. right after a mass
// failure) the live flows split the budget evenly.
func (v *WVegas) renormalize() {
	var sum float64
	live := 0
	for k := range v.weights {
		if v.down[k] {
			v.weights[k] = 0
			continue
		}
		live++
		sum += v.weights[k]
	}
	if live == 0 {
		return
	}
	if sum <= 0 {
		for k := range v.weights {
			if !v.down[k] {
				v.weights[k] = 1 / float64(live)
			}
		}
		return
	}
	for k := range v.weights {
		if !v.down[k] {
			v.weights[k] /= sum
		}
	}
}

func (v *WVegas) updateWeights(flows []View) {
	v.ensure(len(flows))
	// EWMA toward the live rate shares: both the weights and the shares sum
	// to 1 over the live set, so the update preserves Σ weights = 1 without
	// a per-round renormalization.
	var sum float64
	for k, f := range flows {
		if !v.down[k] {
			sum += f.Rate()
		}
	}
	if sum <= 0 {
		return
	}
	for k, f := range flows {
		if v.down[k] {
			continue
		}
		share := f.Rate() / sum
		v.weights[k] = (1-wvegasWeightGain)*v.weights[k] + wvegasWeightGain*share
	}
}

// OnSubflowDown implements MembershipObserver: a dead subflow's weight is
// redistributed to the survivors so Σ weights = 1 over the live set —
// without this, the dead path keeps a slice of the backlog budget forever
// and the survivors under-fill their targets.
func (v *WVegas) OnSubflowDown(r int) {
	v.ensure(r + 1)
	v.down[r] = true
	v.renormalize()
}

// OnSubflowUp implements MembershipObserver: the revived subflow rejoins
// with an equal share carved out of the survivors.
func (v *WVegas) OnSubflowUp(r int) {
	v.ensure(r + 1)
	v.down[r] = false
	live := 0
	for k := range v.down {
		if !v.down[k] {
			live++
		}
	}
	v.weights[r] = 1 / float64(live)
	v.renormalize()
}

// Weights implements Weighted. The slice is owned by the algorithm; the
// caller must not modify it.
func (v *WVegas) Weights() []float64 { return v.weights }

// OnRound implements RoundTuner: once per RTT, compare the backlog estimate
// with the weighted target and move the window by one packet.
func (v *WVegas) OnRound(flows []View, r int) (cwnd, ssthresh float64) {
	v.updateWeights(flows)
	f := flows[r]
	cwnd, ssthresh = f.Cwnd, f.SSThresh

	d := v.diff(f)
	if f.InSlowStart {
		// Leave slow start as soon as queueing builds up.
		if d > wvegasGamma {
			ssthresh = f.Cwnd
			cwnd = f.Cwnd / 2
			if cwnd < 2 {
				cwnd = 2
			}
		}
		return cwnd, ssthresh
	}

	alpha := v.weights[r] * wvegasTotalAlpha
	switch {
	case d < alpha:
		cwnd = f.Cwnd + 1
	case d > alpha:
		cwnd = f.Cwnd - 1
		if cwnd < 2 {
			cwnd = 2
		}
	}
	// Keep ssthresh below cwnd so the transport stays in congestion
	// avoidance; Vegas-style control owns the window from here on.
	if ssthresh > cwnd {
		ssthresh = cwnd
	}
	return cwnd, ssthresh
}

// Introspect implements Introspector: the backlog estimate λ-side quantity
// diff_r, the rate-share weight and the per-path backlog target α_r.
func (v *WVegas) Introspect(flows []View, r int, out map[string]float64) {
	f := flows[r]
	weight := 1 / float64(len(flows))
	if r < len(v.weights) {
		weight = v.weights[r]
	}
	out["diff"] = v.diff(f)
	out["weight"] = weight
	out["alpha"] = weight * wvegasTotalAlpha
}

var (
	_ Algorithm          = (*WVegas)(nil)
	_ RoundTuner         = (*WVegas)(nil)
	_ Introspector       = (*WVegas)(nil)
	_ MembershipObserver = (*WVegas)(nil)
	_ Weighted           = (*WVegas)(nil)
)

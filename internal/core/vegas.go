package core

// Plain TCP Vegas (Brakmo & Peterson, JSAC 1995), applied per subflow: the
// uncoupled delay-based baseline next to wVegas. Each subflow holds its own
// backlog estimate diff_r = w_r·(RTT_r − baseRTT_r)/RTT_r between α and β
// packets, with no cross-subflow weight coupling — exactly what wVegas
// reduces to when the weights are frozen at 1 per path, and the natural
// control to measure the weighted variant's traffic shifting against.

const (
	vegasAlpha = 2.0 // grow while fewer than α packets are queued
	vegasBeta  = 4.0 // shrink when more than β packets are queued
	vegasGamma = 1.0 // slow-start exit threshold (packets of backlog)
)

// Vegas implements per-subflow plain Vegas.
type Vegas struct{}

// NewVegas returns a plain-Vegas instance.
func NewVegas() *Vegas { return &Vegas{} }

// Name implements Algorithm.
func (*Vegas) Name() string { return "vegas" }

// Increase implements Algorithm. Vegas does not react per ACK in
// congestion avoidance; all adjustment happens in OnRound.
func (*Vegas) Increase(flows []View, r int) float64 { return 0 }

// Decrease implements Algorithm: packet loss still halves the window.
func (*Vegas) Decrease(flows []View, r int) float64 { return flows[r].Cwnd / 2 }

// vegasDiff returns the Vegas backlog estimate of a subflow in packets:
// w_r·(RTT_r − baseRTT_r)/RTT_r.
func vegasDiff(f View) float64 {
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

// vegasRound is the round law Vegas and wVegas share: leave slow start once
// the backlog exceeds γ, then steer it into [lo, hi] by one packet per
// round, never below two packets.
func vegasRound(f View, lo, hi float64) (cwnd, ssthresh float64) {
	cwnd, ssthresh = f.Cwnd, f.SSThresh
	d := vegasDiff(f)
	if f.InSlowStart {
		// Leave slow start as soon as queueing builds up.
		if d > vegasGamma {
			ssthresh = f.Cwnd
			cwnd = max(f.Cwnd/2, 2)
		}
		return cwnd, ssthresh
	}
	switch {
	case d < lo:
		cwnd = f.Cwnd + 1
	case d > hi:
		cwnd = max(f.Cwnd-1, 2)
	}
	// Keep ssthresh below cwnd so the transport stays in congestion
	// avoidance; Vegas-style control owns the window from here on.
	if ssthresh > cwnd {
		ssthresh = cwnd
	}
	return cwnd, ssthresh
}

// OnRound implements RoundTuner: once per RTT, steer the backlog into
// [α, β] by one packet.
func (*Vegas) OnRound(flows []View, r int) (cwnd, ssthresh float64) {
	return vegasRound(flows[r], vegasAlpha, vegasBeta)
}

// Introspect implements Introspector: the backlog estimate and its target
// band.
func (*Vegas) Introspect(flows []View, r int, out map[string]float64) {
	out["diff"] = vegasDiff(flows[r])
	out["alpha"] = vegasAlpha
	out["beta"] = vegasBeta
}

var (
	_ Algorithm    = (*Vegas)(nil)
	_ RoundTuner   = (*Vegas)(nil)
	_ Introspector = (*Vegas)(nil)
)

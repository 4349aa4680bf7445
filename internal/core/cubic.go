package core

import "math"

// MPTCP-CUBIC: per-subflow CUBIC (RFC 8312, after the ndn-dpdk and quic
// implementations) — each subflow runs an independent CUBIC window law, the
// uncoupled loss-based baseline the paper's coupled algorithms are measured
// against. The window follows W_cubic(t) = C·(t−K)³ + W_max around the
// plateau W_max recorded at the last decrease, concave below it, convex
// above; fast convergence shrinks the plateau when a flow gives up
// bandwidth twice in a row; and the TCP-friendly region W_est(t) =
// W_max·β + α·t/RTT keeps short-RTT paths at least as aggressive as Reno.
//
// CUBIC is the one algorithm in the registry whose increase is a function
// of wall-clock time rather than of the views alone, so it implements
// ClockUser; without an injected clock it degrades to the Reno increase.

const (
	cubicC    = 0.4 // plateau curvature (segments/s³), RFC 8312 §5
	cubicBeta = 0.7 // multiplicative decrease: w ← β·w
	// cubicAlpha is the AIMD increase rate that makes the TCP-friendly
	// region's average loss response equal Reno's: 3(1−β)/(1+β).
	cubicAlpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
)

// cubicFlow is one subflow's epoch state, reset on every decrease/timeout.
type cubicFlow struct {
	wMax     float64 // plateau of the current epoch
	wLastMax float64 // plateau before fast convergence shrank it
	k        float64 // time to reach the plateau, cbrt(wMax·(1−β)/C)
	epoch    float64 // clock seconds at epoch start
	hasEpoch bool
}

// Cubic implements per-subflow CUBIC.
type Cubic struct {
	clock func() float64
	st    []cubicFlow
}

// NewCubic returns an MPTCP-CUBIC instance.
func NewCubic() *Cubic { return &Cubic{} }

// Name implements Algorithm.
func (*Cubic) Name() string { return "cubic" }

// SetClock implements ClockUser.
func (c *Cubic) SetClock(now func() float64) { c.clock = now }

func (c *Cubic) ensure(n int) {
	for len(c.st) < n {
		c.st = append(c.st, cubicFlow{})
	}
}

// wCubic evaluates the cubic window law t seconds into the epoch.
func (st *cubicFlow) wCubic(t float64) float64 {
	d := t - st.k
	return st.wMax + cubicC*d*d*d
}

// wEst evaluates the TCP-friendly (Reno-equivalent) window estimate.
func (st *cubicFlow) wEst(t, rtt float64) float64 {
	if rtt <= 0 {
		return 0
	}
	return st.wMax*cubicBeta + cubicAlpha*(t/rtt)
}

// Increase implements Algorithm: the per-ACK increment that moves the
// window toward max(W_cubic, W_est) within one RTT, capped at 0.5 so a
// long-idle epoch cannot step the window explosively.
func (c *Cubic) Increase(flows []View, r int) float64 {
	f := flows[r]
	if f.Cwnd <= 0 {
		return 0
	}
	if c.clock == nil {
		return 1 / f.Cwnd
	}
	c.ensure(len(flows))
	st := &c.st[r]
	now := c.clock()
	if !st.hasEpoch {
		// First avoidance ACK without a preceding loss (or after a timeout
		// wiped the epoch): probe convexly from the current window.
		st.hasEpoch = true
		st.epoch = now
		st.wMax = f.Cwnd
		st.k = 0
	}
	t := now - st.epoch
	target := st.wCubic(t)
	if est := st.wEst(t, f.SRTT); est > target {
		target = est // TCP-friendly region
	}
	inc := (target - f.Cwnd) / f.Cwnd
	if inc <= 0 {
		return 0
	}
	if inc > 0.5 {
		inc = 0.5
	}
	return inc
}

// Decrease implements Algorithm: record the plateau (with fast
// convergence if the flow never regained the previous one), restart the
// epoch at the decrease, and shrink to β·w.
func (c *Cubic) Decrease(flows []View, r int) float64 {
	c.ensure(len(flows))
	st := &c.st[r]
	w := flows[r].Cwnd
	if w < st.wLastMax {
		// Fast convergence: the flow lost again below the old plateau, so
		// release bandwidth by aiming below the current window.
		st.wLastMax = w
		st.wMax = w * (1 + cubicBeta) / 2
	} else {
		st.wMax = w
		st.wLastMax = w
	}
	st.k = math.Cbrt(st.wMax * (1 - cubicBeta) / cubicC)
	st.hasEpoch = false
	if c.clock != nil {
		st.epoch = c.clock()
		st.hasEpoch = true
	}
	return w * cubicBeta
}

// OnTimeout implements TimeoutObserver: an RTO (or path failure) discards
// the epoch entirely — the window restarts from the minimum and the old
// plateau no longer describes the path.
func (c *Cubic) OnTimeout(flows []View, r int) {
	c.ensure(len(flows))
	c.st[r] = cubicFlow{}
}

// Introspect implements Introspector: the epoch quantities behind the
// current increase.
func (c *Cubic) Introspect(flows []View, r int, out map[string]float64) {
	c.ensure(len(flows))
	st := &c.st[r]
	var t float64
	if st.hasEpoch && c.clock != nil {
		t = c.clock() - st.epoch
	}
	out["w_max"] = st.wMax
	out["w_last_max"] = st.wLastMax
	out["k"] = st.k
	out["w_cubic"] = st.wCubic(t)
	out["w_est"] = st.wEst(t, flows[r].SRTT)
}

var (
	_ Algorithm       = (*Cubic)(nil)
	_ ClockUser       = (*Cubic)(nil)
	_ TimeoutObserver = (*Cubic)(nil)
	_ Introspector    = (*Cubic)(nil)
)

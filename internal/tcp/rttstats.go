package tcp

import "mptcpsim/internal/sim"

// RTTStats is the connection-grade round-trip estimator every subflow
// delegates to, modeled on quic-go's: a latest sample, an RFC 6298
// smoothed RTT with mean deviation, and a *windowed* minimum RTT that
// expires, so a path whose propagation delay ramps up (mobility, handover)
// does not pin delay-based algorithms to a stale floor forever.
//
// Sampling discipline lives with the caller: the subflow applies Karn's
// rule (no sample when the acknowledgement covers a retransmitted
// segment) and only forwards unambiguous samples here.
//
// The estimator follows the quic-go semantics exactly where they are
// defined:
//
//   - the minimum tracks the raw send delta, never the ack-delay-corrected
//     sample, so a peer reporting large ack delays cannot drive the floor
//     below the true propagation delay;
//   - the ack delay is subtracted from a sample only when the corrected
//     value would still be >= the current minimum;
//   - smoothing uses the standard EWMA gains alpha = 1/8, beta = 1/4.
//
// The min-RTT window is the one extension over quic-go's struct: instead
// of a lifetime minimum, the floor is the minimum over the trailing
// window, maintained with a Kathleen-Nichols-style streaming min filter
// (three timestamped estimates; O(1) per update). Window 0 keeps the
// quic-go lifetime-minimum behaviour.
type RTTStats struct {
	latest   sim.Time
	smoothed sim.Time
	meanDev  sim.Time
	window   sim.Time // 0 = lifetime minimum

	// The windowed min filter: est[0] is the current minimum, est[1] the
	// best since est[0] was recorded, est[2] the best since est[1]. Each
	// carries the time it was observed, so expiry is a comparison.
	est [3]minEstimate

	hasSample bool
}

type minEstimate struct {
	v  sim.Time
	at sim.Time
}

// SetWindow sets the min-RTT expiry window; 0 restores the lifetime
// minimum. Shrinking the window mid-connection only affects future
// updates.
func (r *RTTStats) SetWindow(w sim.Time) {
	if w < 0 {
		w = 0
	}
	r.window = w
}

// HasSample reports whether at least one valid sample has been taken.
func (r *RTTStats) HasSample() bool { return r.hasSample }

// LatestRTT returns the most recent (ack-delay-corrected) sample, 0
// before the first.
func (r *RTTStats) LatestRTT() sim.Time { return r.latest }

// SmoothedRTT returns the EWMA-smoothed RTT, 0 before the first sample.
func (r *RTTStats) SmoothedRTT() sim.Time { return r.smoothed }

// MinRTT returns the minimum raw RTT over the trailing window (the
// lifetime minimum when no window is set), 0 before the first sample.
func (r *RTTStats) MinRTT() sim.Time {
	if !r.hasSample {
		return 0
	}
	return r.est[0].v
}

// RTO returns the RFC 6298 retransmission timeout SRTT + 4·RTTVAR,
// clamped to [rtoMin, rtoMax]; before the first sample it returns rtoMax
// so callers fall back to their configured initial RTO explicitly.
func (r *RTTStats) RTO(rtoMin, rtoMax sim.Time) sim.Time {
	if !r.hasSample {
		return rtoMax
	}
	rto := r.smoothed + 4*r.meanDev
	if rto < rtoMin {
		rto = rtoMin
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	return rto
}

// UpdateRTT takes one sample. sendDelta is the raw measured delta between
// first transmission and acknowledgement arrival; ackDelay is the delay
// the receiver reports having held the acknowledgement (0 when the peer
// acknowledges immediately, as the simulated receiver does); now is the
// current clock, anchoring the min window. Non-positive deltas are
// rejected. It reports whether the sample was accepted — the caller
// resets its RTO backoff exactly when it was (RFC 6298, 5.7).
func (r *RTTStats) UpdateRTT(sendDelta, ackDelay, now sim.Time) bool {
	if sendDelta <= 0 {
		return false
	}

	// The minimum tracks the raw delta (see the type comment).
	r.updateMin(sendDelta, now)

	// Correct for the reported ack delay only if the corrected sample
	// stays at or above the minimum; a coarse peer clock must not drag
	// the estimate below the propagation floor.
	sample := sendDelta
	if sample-r.est[0].v >= ackDelay {
		sample -= ackDelay
	}

	r.latest = sample
	if !r.hasSample {
		r.smoothed = sample
		r.meanDev = sample / 2
		r.hasSample = true
		return true
	}
	diff := r.smoothed - sample
	if diff < 0 {
		diff = -diff
	}
	r.meanDev = (3*r.meanDev + diff) / 4
	r.smoothed = (7*r.smoothed + sample) / 8
	return true
}

// updateMin runs the streaming min filter: a new overall minimum resets
// all three estimates; otherwise the sample refreshes the second/third
// estimates, and an expired front estimate shifts out.
func (r *RTTStats) updateMin(v, now sim.Time) {
	e := minEstimate{v: v, at: now}
	if !r.hasSample || v <= r.est[0].v {
		r.est[0], r.est[1], r.est[2] = e, e, e
		return
	}
	if v <= r.est[1].v {
		r.est[1], r.est[2] = e, e
	} else if v <= r.est[2].v {
		r.est[2] = e
	}
	if r.window > 0 && now-r.est[0].at > r.window {
		// The front minimum aged out: promote the fresher estimates. Chained
		// promotion covers the (rare) case where the runner-ups aged out
		// with it.
		r.est[0], r.est[1], r.est[2] = r.est[1], r.est[2], e
		if r.window > 0 && now-r.est[0].at > r.window {
			r.est[0], r.est[1] = r.est[1], r.est[2]
			if now-r.est[0].at > r.window {
				r.est[0] = e
			}
		}
	}
}

// Package tcp implements the transport machinery both regular TCP and MPTCP
// subflows run on: a NewReno-style sender state machine (slow start,
// congestion avoidance, fast retransmit, recovery, RTO with an RFC 6298
// estimator) and a cumulative-ACK receiver. The congestion-avoidance window
// evolution is delegated to a core.Algorithm, which is where the paper's
// algorithms plug in.
package tcp

import "mptcpsim/internal/sim"

// Config carries the transport settings shared by all subflows of a
// connection. Every other transport parameter is a constant below; the zero
// value is the transport every figure runs.
type Config struct {
	// DisableHystart turns off the delay-based slow-start exit (a
	// HyStart-style guard that leaves slow start when RTT samples show the
	// queue building, preventing the deep overshoot losses classic slow
	// start causes on big queues).
	DisableHystart bool
}

const (
	// MSS is the payload bytes per segment.
	MSS = 1448
	// headerBytes is the per-segment header overhead; WireSize is the size
	// links serialize.
	headerBytes = 52
	// WireSize is the on-the-wire size of one data segment.
	WireSize = MSS + headerBytes
	// AckBytes is the wire size of a pure ACK.
	AckBytes = 52

	// MinCwnd is the floor the window never drops below, in segments.
	MinCwnd = 1.0
	// initialCwnd is the initial congestion window in segments.
	initialCwnd = 10.0

	// rtoMin and rtoMax clamp the retransmission timeout; rtoInit is used
	// before the first RTT sample.
	rtoMin  = 200 * sim.Millisecond
	rtoMax  = 60 * sim.Second
	rtoInit = sim.Second

	// dupAckThreshold triggers fast retransmit (standard 3).
	dupAckThreshold = 3

	// failTimeouts is the number of consecutive RTO episodes (no cumulative
	// ACK progress in between) after which the subflow declares its path
	// dead, freezes, and hands its unacked data back to the connection for
	// re-injection on surviving subflows.
	failTimeouts = 3
	// probeInterval is the initial spacing of the probe segments a dead
	// subflow sends to discover that its path healed; it doubles after
	// every unanswered probe, clamped at rtoMax.
	probeInterval = sim.Second

	// minRTTWindow bounds how long a min-RTT (baseRTT) observation stays
	// valid: the floor delay-based algorithms divide by is the minimum over
	// this trailing window, so a path whose propagation delay ramps up
	// (mobility, handover, faults delay schedules) re-learns its floor
	// instead of pinning to a stale lifetime minimum.
	minRTTWindow = 30 * sim.Second
)

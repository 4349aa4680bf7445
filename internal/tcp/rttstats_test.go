package tcp

import (
	"testing"

	"mptcpsim/internal/sim"
)

const ms = sim.Millisecond

// TestRTTStatsFirstSample pins the RFC 6298 / quic-go initialization:
// smoothed = sample, meanDev = sample/2.
func TestRTTStatsFirstSample(t *testing.T) {
	var r RTTStats
	if r.HasSample() {
		t.Fatal("HasSample true before any sample")
	}
	if r.MinRTT() != 0 || r.SmoothedRTT() != 0 || r.LatestRTT() != 0 {
		t.Fatal("zero-value estimator reports non-zero RTTs")
	}
	if !r.UpdateRTT(300*ms, 0, 0) {
		t.Fatal("valid sample rejected")
	}
	if got := r.SmoothedRTT(); got != 300*ms {
		t.Errorf("smoothed after first sample = %v, want 300ms", got)
	}
	if got := r.meanDev; got != 150*ms {
		t.Errorf("meanDev after first sample = %v, want sample/2 = 150ms", got)
	}
	if got := r.LatestRTT(); got != 300*ms {
		t.Errorf("latest = %v, want 300ms", got)
	}
	if got := r.MinRTT(); got != 300*ms {
		t.Errorf("min = %v, want 300ms", got)
	}
}

// TestRTTStatsSmoothing pins the EWMA gains byte-for-byte against the
// quic-go arithmetic: smoothed' = (7·smoothed + sample)/8, meanDev' =
// (3·meanDev + |smoothed − sample|)/4, evaluated in integer nanoseconds.
func TestRTTStatsSmoothing(t *testing.T) {
	var r RTTStats
	samples := []sim.Time{300 * ms, 300 * ms, 200 * ms, 287 * ms}
	smoothed, meanDev := samples[0], samples[0]/2
	r.UpdateRTT(samples[0], 0, 0)
	for _, s := range samples[1:] {
		diff := smoothed - s
		if diff < 0 {
			diff = -diff
		}
		meanDev = (3*meanDev + diff) / 4
		smoothed = (7*smoothed + s) / 8
		r.UpdateRTT(s, 0, 0)
		if r.SmoothedRTT() != smoothed || r.meanDev != meanDev {
			t.Fatalf("after sample %v: smoothed=%v meanDev=%v, want %v / %v",
				s, r.SmoothedRTT(), r.meanDev, smoothed, meanDev)
		}
	}
	if got := r.MinRTT(); got != 200*ms {
		t.Errorf("min = %v, want 200ms", got)
	}
}

// TestRTTStatsAckDelay pins the quic-go ack-delay rules: the minimum
// tracks the raw send delta, and the delay is subtracted only when the
// corrected sample stays at or above the minimum.
func TestRTTStatsAckDelay(t *testing.T) {
	var r RTTStats

	// First sample: sample − min == 0 < ackDelay, so no correction — a
	// reported delay cannot push the first estimate below the measurement.
	r.UpdateRTT(200*ms, 80*ms, 0)
	if got := r.LatestRTT(); got != 200*ms {
		t.Fatalf("first latest = %v, want uncorrected 200ms", got)
	}
	if got := r.MinRTT(); got != 200*ms {
		t.Fatalf("first min = %v, want raw 200ms", got)
	}

	// 300ms with 50ms ack delay: 300−200 ≥ 50, correction applies.
	r.UpdateRTT(300*ms, 50*ms, 0)
	if got := r.LatestRTT(); got != 250*ms {
		t.Errorf("corrected latest = %v, want 250ms", got)
	}
	if got := r.MinRTT(); got != 200*ms {
		t.Errorf("min moved to %v after corrected sample, want 200ms", got)
	}

	// 210ms with 50ms ack delay: 210−200 < 50, correction would cut below
	// the floor — use the raw sample.
	r.UpdateRTT(210*ms, 50*ms, 0)
	if got := r.LatestRTT(); got != 210*ms {
		t.Errorf("under-floor latest = %v, want uncorrected 210ms", got)
	}

	// A raw delta below the old min lowers the min even with a huge
	// reported delay (min ignores ack delay entirely).
	r.UpdateRTT(150*ms, 500*ms, 0)
	if got := r.MinRTT(); got != 150*ms {
		t.Errorf("min = %v after lower raw delta, want 150ms", got)
	}
}

// TestRTTStatsRejectsNonPositive pins Karn-adjacent input hygiene: zero
// and negative deltas are rejected without touching any state.
func TestRTTStatsRejectsNonPositive(t *testing.T) {
	var r RTTStats
	r.UpdateRTT(100*ms, 0, 0)
	for _, bad := range []sim.Time{0, -1, -100 * ms} {
		if r.UpdateRTT(bad, 0, 0) {
			t.Errorf("UpdateRTT(%v) accepted", bad)
		}
	}
	if r.SmoothedRTT() != 100*ms || r.LatestRTT() != 100*ms || r.MinRTT() != 100*ms {
		t.Error("rejected sample mutated the estimator")
	}
}

// TestRTTStatsWindowExpiry exercises the one extension over quic-go: a
// min-RTT observation older than the window expires and the floor rises to
// the best fresher estimate.
func TestRTTStatsWindowExpiry(t *testing.T) {
	var r RTTStats
	r.SetWindow(10 * sim.Second)

	r.UpdateRTT(100*ms, 0, 0)
	// Steady 150ms samples, one per second.
	for i := 1; i <= 10; i++ {
		now := sim.Time(i) * sim.Second
		r.UpdateRTT(150*ms, 0, now)
		if now-0 <= 10*sim.Second && r.MinRTT() != 100*ms {
			t.Fatalf("t=%ds: min = %v, want 100ms while inside the window", i, r.MinRTT())
		}
	}
	// t = 11s: the 100ms observation at t=0 is now older than the window.
	r.UpdateRTT(150*ms, 0, 11*sim.Second)
	if got := r.MinRTT(); got != 150*ms {
		t.Errorf("min = %v after the floor expired, want 150ms", got)
	}

	// A new lower sample resets the floor immediately.
	r.UpdateRTT(120*ms, 0, 12*sim.Second)
	if got := r.MinRTT(); got != 120*ms {
		t.Errorf("min = %v after lower sample, want 120ms", got)
	}
}

// TestRTTStatsLifetimeMinWithoutWindow pins the window-0 behaviour: the
// minimum never expires, matching quic-go's struct exactly.
func TestRTTStatsLifetimeMinWithoutWindow(t *testing.T) {
	var r RTTStats
	r.UpdateRTT(100*ms, 0, 0)
	for i := 1; i <= 1000; i++ {
		r.UpdateRTT(500*ms, 0, sim.Time(i)*sim.Second)
	}
	if got := r.MinRTT(); got != 100*ms {
		t.Errorf("lifetime min = %v, want 100ms forever with no window", got)
	}
	if r.window != 0 {
		t.Errorf("window = %v, want 0", r.window)
	}
	r.SetWindow(-5)
	if r.window != 0 {
		t.Error("negative SetWindow did not clamp to 0")
	}
}

// TestRTTStatsStaircaseExpiry walks a rising delay staircase through a
// short window: the floor must follow the staircase up with at most one
// window of lag, never pinning to the global minimum.
func TestRTTStatsStaircaseExpiry(t *testing.T) {
	var r RTTStats
	r.SetWindow(2 * sim.Second)
	now := sim.Time(0)
	for step := 0; step < 5; step++ {
		rtt := sim.Time(100+50*step) * ms
		for i := 0; i < 40; i++ {
			now += 100 * ms
			r.UpdateRTT(rtt, 0, now)
		}
		if got := r.MinRTT(); got != rtt {
			t.Fatalf("step %d (rtt=%v): min = %v, want the step's own floor", step, rtt, got)
		}
	}
}

// TestRTTStatsRTO pins the RFC 6298 timeout: smoothed + 4·meanDev clamped
// to [rtoMin, rtoMax], rtoMax before the first sample.
func TestRTTStatsRTO(t *testing.T) {
	var r RTTStats
	if got := r.RTO(200*ms, 60*sim.Second); got != 60*sim.Second {
		t.Errorf("RTO before first sample = %v, want rtoMax", got)
	}
	r.UpdateRTT(100*ms, 0, 0)
	// smoothed=100ms, meanDev=50ms → raw RTO 300ms.
	if got := r.RTO(200*ms, 60*sim.Second); got != 300*ms {
		t.Errorf("RTO = %v, want 300ms", got)
	}
	if got := r.RTO(400*ms, 60*sim.Second); got != 400*ms {
		t.Errorf("RTO = %v, want clamped up to rtoMin", got)
	}
	if got := r.RTO(0, 250*ms); got != 250*ms {
		t.Errorf("RTO = %v, want clamped down to rtoMax", got)
	}
}

// FuzzUpdateRTT drives the estimator with arbitrary sample sequences and
// asserts its structural invariants hold regardless of input.
func FuzzUpdateRTT(f *testing.F) {
	f.Add(int64(300*ms), int64(50*ms), int64(0), int64(0))
	f.Add(int64(100*ms), int64(0), int64(sim.Second), int64(10*sim.Second))
	f.Add(int64(-5), int64(7), int64(3), int64(-1))
	f.Add(int64(1), int64(1<<62), int64(1<<62), int64(1))
	f.Fuzz(func(t *testing.T, d1, ackDelay, step, window int64) {
		// Bound everything to ±1h of simulated time: samples are clock
		// deltas, so magnitudes beyond the engine horizon are unreachable
		// and would only exercise int64 overflow in the EWMA arithmetic.
		const hour = int64(3600 * sim.Second)
		d1 %= hour
		ackDelay %= hour
		window %= hour
		step %= hour
		if step < 0 {
			step = -step
		}
		var r RTTStats
		r.SetWindow(sim.Time(window))
		now := sim.Time(0)
		// Derive a short deterministic sample sequence from the inputs.
		deltas := []sim.Time{sim.Time(d1), sim.Time(d1 / 2), sim.Time(d1) + sim.Time(ackDelay), sim.Time(d1 * 3)}
		for _, d := range deltas {
			accepted := r.UpdateRTT(d, sim.Time(ackDelay), now)
			if accepted != (d > 0) {
				t.Fatalf("UpdateRTT(%d) accepted=%v", d, accepted)
			}
			if step > 0 {
				now += sim.Time(step)
			}
			if !r.HasSample() {
				continue
			}
			if r.MinRTT() <= 0 {
				t.Fatalf("MinRTT = %v not positive after a sample", r.MinRTT())
			}
			if r.LatestRTT() <= 0 {
				t.Fatalf("LatestRTT = %v not positive after a sample", r.LatestRTT())
			}
			if accepted && r.MinRTT() > d {
				t.Fatalf("MinRTT = %v above the raw sample %v", r.MinRTT(), d)
			}
			if r.meanDev < 0 {
				t.Fatalf("meanDev = %v negative", r.meanDev)
			}
			if rto := r.RTO(200*ms, 60*sim.Second); rto < 200*ms || rto > 60*sim.Second {
				t.Fatalf("RTO = %v outside [rtoMin, rtoMax]", rto)
			}
		}
	})
}

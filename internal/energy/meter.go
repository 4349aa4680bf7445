package energy

import (
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// DefaultInterval is the power sampling period (10 ms of simulated time,
// matching RAPL-style polling).
const DefaultInterval = 10 * sim.Millisecond

// Probe produces the instantaneous Sample a Meter feeds its power model.
// The probe's window is the meter's sampling interval.
type Probe func(window sim.Time) Sample

// Meter integrates a power model over simulated time: every interval it
// probes the host's activity, evaluates the model and accumulates
// P·Δt joules, keeping the most recent power reading for samplers.
//
// The meter only accounts for time while it is running: Start marks the
// beginning of the metered span, Stop integrates the residual partial
// interval and halts sampling, and MeanPower divides by the metered span —
// not the engine clock — so a meter started mid-run reports the correct
// average. Start while running is a no-op (no double-counting); Start after
// Stop resumes metering, extending the same accumulators.
type Meter struct {
	eng   *sim.Engine
	model Model
	probe Probe

	joules   float64
	watts    float64  // power over the most recent integrated span
	metered  sim.Time // total span integrated so far
	lastTick sim.Time
	ticker   sim.Ticker // runs Flush every interval; running = metering
}

// NewMeter creates a meter; interval 0 takes DefaultInterval.
func NewMeter(eng *sim.Engine, model Model, probe Probe, interval sim.Time) *Meter {
	if interval <= 0 {
		interval = DefaultInterval
	}
	m := &Meter{eng: eng, model: model, probe: probe}
	m.ticker = sim.MakeTicker(eng, interval, m.Flush)
	return m
}

// Start begins periodic sampling. The meter reschedules itself until Stop
// is called or the engine's horizon cuts it off. Calling Start on a running
// meter is a no-op; calling it after Stop resumes metering from now.
func (m *Meter) Start() {
	if m.ticker.Running() {
		return
	}
	m.lastTick = m.eng.Now()
	m.ticker.Start()
}

// Stop integrates the residual partial interval since the last tick and
// halts sampling: the queued tick is cancelled. Stop on an idle meter is a
// no-op.
func (m *Meter) Stop() {
	m.Flush()
	m.ticker.Stop()
}

// Flush integrates the span since the last tick immediately, without
// waiting for the next scheduled tick. Call it after the engine's horizon
// cuts sampling off (eng.Run returned before the final tick fired) so
// Joules and MeanPower cover the full run rather than dropping the last
// partial interval. Flushing a stopped or never-started meter is a no-op.
func (m *Meter) Flush() {
	if !m.ticker.Running() {
		return
	}
	now := m.eng.Now()
	dt := now - m.lastTick
	if dt <= 0 {
		return
	}
	m.lastTick = now
	m.metered += dt
	m.watts = m.model.Power(m.probe(dt))
	m.joules += m.watts * dt.Seconds()
}

// Joules returns the energy integrated so far.
func (m *Meter) Joules() float64 { return m.joules }

// LastWatts returns the power the model reported for the most recently
// integrated span (0 before the first tick).
func (m *Meter) LastWatts() float64 { return m.watts }

// MeanPower returns the average power over the metered span so far — the
// time the meter was actually running, not the engine clock, so a meter
// started mid-run is not diluted by the unmetered prefix.
func (m *Meter) MeanPower() float64 {
	if m.metered <= 0 {
		return 0
	}
	return m.joules / m.metered.Seconds()
}

// ConnProbe builds a Probe over a set of connections terminating at one
// host — the one place a run's activity becomes a Sample. The aggregate:
// throughput is the sum of the connections' goodput over the window; RTT is
// the traffic-weighted mean across subflows, matching Eq. 2's per-path form
// Σ_r P_r(τ_r, RTT_r) — a path only contributes its delay in proportion to
// the traffic it carries. Completed connections stop contributing. The
// breakdown: one PathSample per subflow, its goodput the segments newly
// acked in the window, so a completed connection's last delivery is still
// attributed to the paths that carried it.
func ConnProbe(conns ...*mptcp.Conn) Probe {
	var lastBytes uint64
	var n int
	for _, c := range conns {
		n += len(c.Subflows())
	}
	lastAcked := make([]int64, n)
	paths := make([]PathSample, n)
	return func(window sim.Time) Sample {
		var total uint64
		var rtt rttMean
		seconds := window.Seconds()
		i := 0
		for _, c := range conns {
			total += c.AckedBytes()
			live := !c.Done()
			for _, s := range c.Subflows() {
				srtt := s.SRTT().Seconds()
				acked := s.Acked()
				d := float64(acked - lastAcked[i])
				lastAcked[i] = acked
				paths[i] = PathSample{Name: s.Path().Name, RTTSeconds: srtt}
				if window > 0 {
					paths[i].ThroughputBps = d * float64(tcp.MSS) * 8 / seconds
				}
				i++
				if live {
					rtt.add(d, srtt)
				}
			}
		}
		delta := total - lastBytes
		lastBytes = total
		smp := Sample{Subflows: rtt.n, MeanRTTSeconds: rtt.mean(), Paths: paths}
		if window > 0 {
			smp.ThroughputBps = float64(delta) * 8 / seconds
		}
		return smp
	}
}

// PerGigabit converts joules and delivered bytes into the energy-overhead
// metric of Figs. 12-15: joules per gigabit of goodput. It returns 0 when
// nothing was delivered.
func PerGigabit(joules float64, bytes uint64) float64 {
	gbits := float64(bytes) * 8 / 1e9
	if gbits <= 0 {
		return 0
	}
	return joules / gbits
}

package backend

import (
	"context"
	"fmt"
	"math"

	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/tcp"
)

// PacketEngine answers scenarios with a full discrete-event run of the
// netem/tcp/mptcp stack — the ground-truth backend.
type PacketEngine struct{}

// Name implements Engine.
func (PacketEngine) Name() string { return "packet" }

// Run implements Engine. Cancelling ctx stops the simulation at the next
// simulated-second boundary and returns the context's error.
func (PacketEngine) Run(ctx context.Context, sc Scenario) (Result, error) {
	return runPacket(ctx, sc, obsv.CheckOff, nil)
}

// runPacket is the one packet-side measurement protocol, shared by the
// engine and the conformance harness (which runs it under fail-fast
// invariants): snapshot cumulative acks at warmup, sample SRTT every 250 ms
// through the window, read the deltas at the horizon, and report shares,
// rates and the measured operating point. wd, when set, is the supervised
// sweep's watchdog for the run's engine.
func runPacket(ctx context.Context, sc Scenario, check obsv.CheckMode, wd *supervise.Watchdog) (Result, error) {
	sc = sc.WithDefaults()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if sc.Algorithm == "" {
		return Result{}, fmt.Errorf("backend: the packet engine measures a connection; scenario names no algorithm")
	}
	var (
		ackAt   []int64
		srttSum []float64
		srttN   int
	)
	w, err := Run(sc, obsv.Config{Check: check}, wd, Stages{Drive: func(w *World) {
		eng, subs, meter := w.Eng, w.Conn.Subflows(), w.Meter
		ackAt, srttSum = make([]int64, len(subs)), make([]float64, len(subs))
		eng.Schedule(sc.Warmup, func() {
			for r := range ackAt {
				ackAt[r] = subs[r].Acked()
			}
			if meter != nil {
				meter.Start()
			}
		})
		var sample sim.Ticker
		sample = sim.MakeTicker(eng, 250*sim.Millisecond, func() {
			for r := range srttSum {
				srttSum[r] += subs[r].SRTT().Seconds()
			}
			srttN++
			if eng.Now() >= sc.Horizon {
				sample.Stop()
			}
		})
		eng.Schedule(sc.Warmup, sample.StartNow)
		// Cooperative cancellation: poll the context once per simulated
		// second and stop the engine early when it fires.
		supervise.StopOnCancel(ctx, eng, sim.Second)
		eng.Run(sc.Horizon)
	}})
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	subs := w.Conn.Subflows()
	res := Result{
		Fidelity:  "packet",
		Converged: true,
		Events:    w.Eng.Processed(),
		Op:        OperatingPoint{RTT: make([]float64, len(subs)), Frac: make([]float64, len(subs))},
		RateBps:   make([]float64, len(subs)),
		Shares:    make([]float64, len(subs)),
	}
	window := (sc.Horizon - sc.Warmup).Seconds()
	var total float64
	delta := make([]float64, len(subs))
	for r, s := range subs {
		delta[r] = float64(s.Acked() - ackAt[r])
		total += delta[r]
	}
	if total <= 0 {
		return Result{}, fmt.Errorf("backend: %s/%s: no goodput in measurement window", sc.Topology, sc.Algorithm)
	}
	for r, s := range subs {
		res.Shares[r] = delta[r] / total
		res.RateBps[r] = delta[r] * 8 * tcp.MSS / window
		res.AggregateBps += res.RateBps[r]
		res.Op.RTT[r] = srttSum[r] / float64(srttN)
		if base := s.BaseRTT().Seconds(); base > 0 && res.Op.RTT[r] > 0 {
			res.Op.Frac[r] = math.Min(base/res.Op.RTT[r], 1)
		} else {
			res.Op.Frac[r] = 1
		}
	}
	if w.Meter != nil {
		res.Joules = w.Meter.Joules()
	}
	return res, nil
}

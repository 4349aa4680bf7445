package main

import (
	"context"
	"fmt"
	"time"

	"mptcpsim/internal/check"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// churnOpts carries the -churn mode knobs: an open-loop flow population
// replaces the single measured connection.
type churnOpts struct {
	flows    int     // -churn: total flows to offer
	arrival  float64 // -arrival: flows/sec (0 = 40 per host)
	maxFlows int     // -max-flows: admission cap (0 = uncapped)
}

// buildChurnNet wires one of the many-host topologies for a churn run. The
// twopath/hetwireless/dumbbell scenarios have a single measured route, so a
// population makes no sense there.
func buildChurnNet(eng *sim.Engine, name string, hosts int) (flows.Net, error) {
	switch name {
	case "fattree":
		return topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	case "vl2":
		return topo.NewVL2(eng, topo.VL2Config{HostsPerToR: 2, ToRs: 8, Aggs: 4, Ints: 4})
	case "bcube":
		return topo.NewBCube(eng, topo.BCubeConfig{N: 3, K: 1})
	case "ec2":
		return topo.NewEC2VPC(eng, topo.EC2Config{Hosts: hosts}), nil
	default:
		return nil, fmt.Errorf("-churn needs a multi-host topology (fattree, vl2, bcube, ec2), not %q", name)
	}
}

// runChurnScenario executes one open-loop churn run: Poisson arrivals of
// heavy-tailed flows across random host pairs, torn down as they complete,
// with deterministic shedding at the admission cap. It prints the offered /
// completed / shed / cut reconciliation and per-flow percentiles.
func runChurnScenario(ctx context.Context, sc scenario, co churnOpts, seed int64, wd *supervise.Watchdog) error {
	eng := sim.NewEngine(seed)
	wd.Attach(eng)
	stopOnCancel(ctx, eng)

	net, err := buildChurnNet(eng, sc.topo, sc.hosts)
	if err != nil {
		return err
	}
	rate := co.arrival
	if rate <= 0 {
		rate = float64(net.Hosts()) * 40
	}

	var inv *check.Invariants
	if sc.check {
		inv = check.New(eng)
	}
	var rec *obsv.Recorder
	var sink *obsv.Sink
	if sc.trace != "" {
		var err error
		if sink, err = obsv.CreateSink(tracePath(sc.trace, seed, sc.multiTrace)); err != nil {
			return err
		}
		// A no-op after the Close below; on a panic or an early return it
		// flushes the record through its last line and releases the file.
		defer sink.Close()
		rec = obsv.NewRecorder(eng, obsv.Meta{
			Experiment: "churn",
			Scenario:   sc.topo,
			Algorithm:  sc.alg,
			Seed:       seed,
		}, obsv.Options{Interval: sim.FromDuration(sc.sampleInt), Stream: sink})
	}

	// The summary's percentiles are exact and over completed flows only.
	var fcts, gputs, joules []float64
	mgr, err := flows.New(eng, net, flows.Config{
		Algorithm:     sc.alg,
		Subflows:      sc.subflows,
		TotalFlows:    co.flows,
		MaxConcurrent: co.maxFlows,
		Arrivals:      flows.Poisson{Rate: rate},
		Check:         inv,
		Emit: func(r flows.Report) {
			if r.Shed == "" {
				fcts = append(fcts, r.FCT.Seconds())
				gputs = append(gputs, r.GoodputBps)
				joules = append(joules, r.Joules)
			}
			if rec == nil {
				return
			}
			rec.EmitFlow(obsv.Flow{
				T: r.At.Seconds(), ID: r.ID, Class: r.Class.String(),
				Bytes: r.Bytes, FCTSeconds: r.FCT.Seconds(),
				GoodputBps: r.GoodputBps, Joules: r.Joules,
				Subflows: r.Subflows, Shed: r.Shed,
			})
		},
	})
	if err != nil {
		return err
	}
	if rec != nil {
		rec.AddSampler("flows.live", func() float64 { return float64(mgr.Live()) })
		rec.Start()
	}
	if inv != nil {
		inv.Start()
	}

	mgr.OnDrained = eng.Stop
	start := time.Now()
	mgr.Start()
	eng.Run(sim.FromDuration(sc.duration))
	mgr.CutLive()

	if inv != nil {
		inv.Final()
		if err := inv.Err(); err != nil {
			return err
		}
		fmt.Printf("checks:  %d invariant evaluations, clean\n", inv.Checks())
	}

	st := mgr.Stats()
	fmt.Printf("simulated %.1fs in %.2fs wall (%d events)\n",
		eng.Now().Seconds(), time.Since(start).Seconds(), eng.Processed())
	fmt.Printf("flows:   %d offered = %d completed + %d shed + %d cut (peak live %d)\n",
		st.Offered, st.Completed, st.ShedCapacity, st.Cut, st.PeakLive)
	if len(fcts) > 0 {
		fmt.Printf("fct:     p50 %.3fs  p95 %.3fs  p99 %.3fs\n",
			stats.Percentile(fcts, 50), stats.Percentile(fcts, 95), stats.Percentile(fcts, 99))
		fmt.Printf("goodput: p50 %.2f Mb/s\n", stats.Percentile(gputs, 50)/1e6)
		fmt.Printf("energy:  p50 %.3f J/flow  p99 %.3f J/flow (marginal over idle)\n",
			stats.Percentile(joules, 50), stats.Percentile(joules, 99))
	}

	if rec != nil {
		rec.SetSummary("flows_offered", float64(st.Offered))
		rec.SetSummary("flows_completed", float64(st.Completed))
		rec.SetSummary("flows_shed", float64(st.ShedCapacity))
		rec.SetSummary("flows_cut", float64(st.Cut))
		err := rec.Close()
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace:   %s\n", tracePath(sc.trace, seed, sc.multiTrace))
	}
	if ctx != nil && ctx.Err() != nil {
		return interruptedErr(fmt.Sprintf(
			"interrupted at %.1fs simulated (%d of %d flows offered)",
			eng.Now().Seconds(), st.Offered, uint64(co.flows)))
	}
	return nil
}

// Command streaming exercises the paper's future-work scenario: video
// sessions over MPTCP, compared across congestion-control algorithms on the
// bitrate they deliver and the energy they cost per media second. Every
// session is a stream-class flow of an internal/flows population on a
// FatTree — an app-limited connection fed one chunk per second — so the
// whole run is one backend.Scenario.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/topo"
)

// stream is the session every flow runs: 4 Mb/s in one-second chunks, 10 s
// on average.
var stream = flows.StreamConfig{
	Ladder:  []int64{4e6},
	Chunk:   sim.Second,
	MeanDur: 10 * sim.Second,
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("video sessions on FatTree(k=4), 2 subflows, 5 arrivals/s, 30 s")
	fmt.Printf("%-8s %9s %10s %10s %14s\n", "alg", "sessions", "mean_mbps", "p10_mbps", "j_per_media_s")
	for _, alg := range []string{"lia", "dts", "dts-lia"} {
		if err := one(alg); err != nil {
			return err
		}
	}
	return nil
}

func one(alg string) error {
	var mbps []float64
	var joules float64
	sc := backend.Scenario{
		Topology: "fattree", Net: topo.Params{Size: 4}, EnergyModel: "none",
		Seed: 9, Horizon: 30 * sim.Second,
		Population: &flows.Config{
			Algorithm: alg, Subflows: 2, TotalFlows: 160,
			Arrivals: flows.Poisson{Rate: 5},
			Mix:      []flows.ClassMix{{Class: flows.Stream, Weight: 1}},
			Stream:   stream,
			Emit: func(r flows.Report) {
				mbps = append(mbps, r.GoodputBps/1e6)
				joules += r.Joules
			},
		},
	}
	w, err := backend.Run(sc, obsv.Config{}, nil, backend.Stages{})
	if err != nil {
		return err
	}

	st := w.Pop.Stats()
	mediaSeconds := float64(w.Pop.StreamChunks()) * stream.Chunk.Seconds()
	fmt.Printf("%-8s %9d %10.2f %10.2f %14.3f\n",
		alg, st.Completed, stats.Mean(mbps), stats.Percentile(mbps, 10), joules/mediaSeconds)
	return nil
}

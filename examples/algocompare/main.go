// Command algocompare runs the Fig. 5a / Fig. 6 scenario at example scale: N MPTCP
// users and 2N TCP users share two bottlenecks; each MPTCP user moves
// 16 MB and we compare the per-user energy distribution across the four
// TCP-friendly coupled algorithms.
//
//	go run ./examples/algocompare
package main

import (
	"fmt"
	"log"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/topo"
)

const (
	users    = 8
	transfer = 16 << 20
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("%d MPTCP users (16 MB each) + %d TCP users, two 100 Mb/s bottlenecks\n", users, 2*users)
	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n", "alg", "min_j", "q1_j", "median_j", "q3_j", "max_j")
	for _, alg := range []string{"lia", "olia", "balia", "ecmtcp", "dts"} {
		joules, err := one(alg)
		if err != nil {
			return err
		}
		b := stats.NewBox(joules)
		fmt.Printf("%-8s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			alg, b.Min, b.Q1, b.Median, b.Q3, b.Max)
	}
	return nil
}

func one(alg string) ([]float64, error) {
	eng := sim.NewEngine(11)
	d := topo.NewDumbbell(eng, 3*users)

	remaining := users
	meters := make([]*energy.Meter, users)
	for u := 0; u < users; u++ {
		u := u
		conn, err := mptcp.New(eng,
			mptcp.Config{Algorithm: alg, TransferBytes: transfer},
			uint64(u+1), d.MPTCPPaths(u)...)
		if err != nil {
			return nil, err
		}
		meters[u] = energy.NewMeter(eng, energy.NewI7(), energy.ConnProbe(conn), 0)
		meters[u].Start()
		conn.OnComplete = func(sim.Time) {
			meters[u].Stop()
			if remaining--; remaining == 0 {
				eng.Stop()
			}
		}
		conn.Start()
	}
	for u := 0; u < users; u++ {
		for b := 0; b < 2; b++ {
			bg, err := mptcp.New(eng, mptcp.Config{Algorithm: "reno"},
				uint64(1000+2*u+b), d.TCPPath((b+1)*users+u, b))
			if err != nil {
				return nil, err
			}
			bg.Start()
		}
	}
	eng.Run(300 * sim.Second)

	out := make([]float64, users)
	for u, m := range meters {
		out[u] = m.Joules()
	}
	return out, nil
}

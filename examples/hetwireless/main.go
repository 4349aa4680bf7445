// Command hetwireless reproduces the paper's Fig. 17 scenario interactively: a
// handset with a WiFi and a 4G interface transfers data under bursty cross
// traffic, comparing LIA against the paper's DTS for handset energy.
//
//	go run ./examples/hetwireless
package main

import (
	"fmt"
	"log"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("WiFi 10 Mb/s / 40 ms + 4G 20 Mb/s / 100 ms, bursty cross traffic, 120 s")
	fmt.Printf("%-6s %14s %12s %12s\n", "alg", "goodput_mbps", "energy_j", "j_per_gbit")
	for _, alg := range []string{"lia", "dts", "dtsep"} {
		tput, joules, err := one(alg)
		if err != nil {
			return err
		}
		gbits := tput * 120 / 1e9
		fmt.Printf("%-6s %14.2f %12.1f %12.1f\n", alg, tput/1e6, joules, joules/gbits)
	}
	return nil
}

func one(alg string) (tputBps, joules float64, err error) {
	// The Fig. 17 world, declared: the registry's handset topology, bursty
	// cross traffic on both radio links (Pareto bursts), the paper's 64 KB
	// receive buffer, the Nexus 5 meter (SoC plus both radios, each priced
	// at the goodput of its own path), and for dtsep a price on the
	// energy-hungry 4G hop for the compensative term (Eq. 9).
	const horizon = 120 * sim.Second
	sc := backend.Scenario{
		Topology: "hetwireless", Algorithm: alg, Rwnd: 45, Cross: true,
		EnergyModel: "nexus5", Seed: 7, Horizon: horizon,
	}
	if alg == "dtsep" {
		sc.Price = &backend.Price{Path: 1, Rho: 2.0, Gamma: 0.1, QTarget: 12}
	}
	w, err := backend.Run(sc, obsv.Config{}, nil, backend.Stages{})
	if err != nil {
		return 0, 0, err
	}
	return w.Conn.MeanThroughputBps(), w.Meter.Joules(), nil
}

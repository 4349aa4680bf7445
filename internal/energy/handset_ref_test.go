package energy_test

import (
	"testing"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// refHandsetMeter is the hand-rolled handset integrator internal/exp kept
// before NexusModel read the per-path Sample, retained verbatim (its
// PowerSplit call written out) as the reference Meter + "nexus5" is held
// to, bit for bit.
type refHandsetMeter struct {
	eng    *sim.Engine
	model  *energy.NexusModel
	conn   *mptcp.Conn
	both   bool
	last   []int64
	joules float64
	lastT  sim.Time
	onTick func()
}

func newRefHandsetMeter(eng *sim.Engine, conn *mptcp.Conn, both bool) *refHandsetMeter {
	m := &refHandsetMeter{
		eng:   eng,
		model: energy.NewNexus(),
		conn:  conn,
		both:  both,
		last:  make([]int64, len(conn.Subflows())),
	}
	m.lastT = eng.Now()
	eng.After(energy.DefaultInterval, m.tick)
	return m
}

func (m *refHandsetMeter) tick() {
	now := m.eng.Now()
	dt := now - m.lastT
	m.lastT = now
	var samples [2]energy.Sample // [wifi, lte]
	for i, s := range m.conn.Subflows() {
		acked := s.Acked()
		delta := acked - m.last[i]
		m.last[i] = acked
		tput := float64(delta) * 1448 * 8 / dt.Seconds()
		radio := 0
		if m.both && i == 1 || !m.both && s.Path().Name == "lte" {
			radio = 1
		}
		samples[radio].ThroughputBps += tput
		samples[radio].Subflows++
	}
	m.joules += (m.model.SoC + m.model.WiFi.Power(samples[0]) + m.model.LTE.Power(samples[1])) * dt.Seconds()
	m.onTick()
	m.eng.After(energy.DefaultInterval, m.tick)
}

// TestMeterMatchesHandsetReference runs the handset worlds the figures use
// through backend.Run with EnergyModel "nexus5" and the reference beside
// it, and compares the two integrals after every 10 ms tick.
func TestMeterMatchesHandsetReference(t *testing.T) {
	const horizon = 12 * sim.Second
	cases := []struct {
		name   string
		radios []int // indices into hetwireless's routes; nil = the topology itself
		sc     backend.Scenario
	}{
		{name: "both radios", sc: backend.Scenario{Topology: "hetwireless", Algorithm: "lia"}},
		{name: "wifi alone", radios: []int{0}, sc: backend.Scenario{Algorithm: "reno"}},
		{name: "lte alone", radios: []int{1}, sc: backend.Scenario{Algorithm: "reno"}},
		{name: "cross traffic and receive window", sc: backend.Scenario{
			Topology: "hetwireless", Algorithm: "dts", Cross: true, Rwnd: 45}},
		{name: "outage", sc: backend.Scenario{
			Topology: "hetwireless", Algorithm: "lia", Faults: "wifi:down@3s,up@7s"}},
		{name: "finite transfer", sc: backend.Scenario{
			Topology: "hetwireless", Algorithm: "lia", TransferBytes: 4 << 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.EnergyModel, sc.Seed, sc.Horizon = "nexus5", 3, horizon
			var ref *refHandsetMeter
			ticks := 0
			w, err := backend.Run(sc, obsv.Config{}, nil, backend.Stages{
				Ready: func(eng *sim.Engine) []*netem.Path {
					if tc.radios == nil {
						return nil
					}
					net, err := topo.Build(eng, "hetwireless", topo.Params{})
					if err != nil {
						t.Fatal(err)
					}
					var ready []*netem.Path
					for _, r := range tc.radios {
						ready = append(ready, net.Paths(0, 1, 0)[r])
					}
					return ready
				},
				Attach: func(w *backend.World, _ *obsv.Observer) {
					ref = newRefHandsetMeter(w.Eng, w.Conn, len(w.Paths) == 2)
					ref.onTick = func() {
						ticks++
						if got := w.Meter.Joules(); got != ref.joules {
							t.Fatalf("tick %d at %v: Meter %v J, reference %v J", ticks, w.Eng.Now().Duration(), got, ref.joules)
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int(horizon / energy.DefaultInterval); ticks != want {
				t.Fatalf("compared %d ticks, want %d", ticks, want)
			}
			if got := w.Meter.Joules(); got != ref.joules || got <= 0 {
				t.Errorf("at the horizon: Meter %v J, reference %v J", got, ref.joules)
			}
			if tc.sc.TransferBytes > 0 && !w.Conn.Done() {
				t.Error("the transfer did not finish: the completed-connection ticks were not compared")
			}
		})
	}
}

// TestMeterIntegratesResidualTheReferenceDropped pins the one intended
// difference: at a horizon that is not a multiple of the 10 ms interval the
// reference stopped at its last tick, while backend.Run's settling
// integrates the partial interval that follows it.
func TestMeterIntegratesResidualTheReferenceDropped(t *testing.T) {
	const horizon = 5*sim.Second + 4*sim.Millisecond
	sc := backend.Scenario{Topology: "hetwireless", Algorithm: "lia", EnergyModel: "nexus5", Seed: 3, Horizon: horizon}
	var ref *refHandsetMeter
	w, err := backend.Run(sc, obsv.Config{}, nil, backend.Stages{
		Attach: func(w *backend.World, _ *obsv.Observer) {
			ref = newRefHandsetMeter(w.Eng, w.Conn, true)
			ref.onTick = func() {}
		},
		Drive: func(w *backend.World) {
			w.Eng.Run(horizon)
			if got := w.Meter.Joules(); got != ref.joules {
				t.Fatalf("before settling: Meter %v J, reference %v J", got, ref.joules)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	residual := w.Meter.Joules() - ref.joules
	// 4 ms at handset power: between both radios idle and both saturated.
	if lo, hi := 0.53*0.004, 3.2*0.004; residual < lo || residual > hi {
		t.Errorf("settling added %v J for the last 4 ms, want within [%v, %v]", residual, lo, hi)
	}
	if got, want := w.Meter.MeanPower(), w.Meter.Joules()/horizon.Seconds(); got != want {
		t.Errorf("MeanPower %v, want joules over the whole horizon %v", got, want)
	}
}

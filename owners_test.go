package mptcpsim_test

import (
	"path/filepath"
	"testing"

	"mptcpsim/internal/check"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/pathsel"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// tickerOwner is one object that runs periodic work on a sim.Ticker.
type tickerOwner struct {
	name   string
	period sim.Time
	// build makes the owner on eng. ticks counts the periodic work done so
	// far; ready, when set, says the owner has reached the state to stop it in.
	build func(t *testing.T, eng *sim.Engine) (start, stop func(), ticks func() uint64, ready func() bool)
	owns  int  // events the running owner has queued
	busy  bool // something the owner drives keeps events of its own
}

func hetConn(t *testing.T, eng *sim.Engine, cfg mptcp.Config) *mptcp.Conn {
	t.Helper()
	cfg.Algorithm = "lia"
	het, err := topo.Build(eng, "hetwireless", topo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := mptcp.New(eng, cfg, 1, het.Paths(0, 1, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

var tickerOwners = []tickerOwner{
	{name: "energy.Meter", period: energy.DefaultInterval, owns: 1,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			var n uint64
			m := energy.NewMeter(eng, energy.Constant(1), func(window sim.Time) energy.Sample {
				if window == energy.DefaultInterval { // Stop's residual is a probe but no tick
					n++
				}
				return energy.Sample{}
			}, 0)
			return m.Start, m.Stop, func() uint64 { return n }, nil
		}},
	{name: "obsv.Recorder", period: obsv.DefaultInterval, owns: 1,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			var n uint64
			r := obsv.NewRecorder(eng, obsv.Meta{}, obsv.Options{})
			r.AddSampler("n", func() float64 { n++; return 0 })
			return r.Start, func() { _ = r.Close() }, func() uint64 { return n }, nil
		}},
	{name: "check.Invariants", period: check.DefaultInterval, owns: 1,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			inv := check.New(eng)
			return inv.Start, inv.Stop, inv.Checks, nil
		}},
	{name: "obsv.Observer", period: obsv.DefaultInterval, owns: 2,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			var n, final uint64
			obs, err := obsv.NewObserver(eng, obsv.Config{
				Path: filepath.Join(t.TempDir(), "run.jsonl"), Check: obsv.CheckCollect,
			})
			if err != nil {
				t.Fatal(err)
			}
			obs.Sample("n", func() float64 { n++; return 0 })
			stop := func() {
				if err := obs.Close(); err != nil {
					t.Error(err)
				}
				final = 1 // Close evaluates the invariants once more: no tick
			}
			return obs.Start, stop, func() uint64 { return n + obs.Inv().Checks() - final }, nil
		}},
	{name: "pathsel.Selector", period: sim.Second, owns: 1, busy: true, // enabling a subflow kicks it
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			s := pathsel.New(eng, hetConn(t, eng, mptcp.Config{}), []energy.Model{energy.NewWiFi(), energy.NewLTE()})
			return s.Start, s.Stop, func() uint64 { return uint64(s.Decisions()) }, nil
		}},
	// A stream's chunk timer is hand-scheduled, not a Ticker (its flow slot
	// can move), but releasing the flow must unlink it all the same, with the
	// session's end timer and, the connection being settled, its RTO timer.
	{name: "flows stream", period: 100 * sim.Millisecond, owns: 3,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			m, err := flows.New(eng, ft, flows.Config{
				Algorithm: "lia", TotalFlows: 1, Arrivals: flows.Poisson{Rate: 1000},
				Mix:    []flows.ClassMix{{Class: flows.Stream, Weight: 1}},
				Stream: flows.StreamConfig{Chunk: 100 * sim.Millisecond, MeanDur: 1000 * sim.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			return m.Start, m.CutLive, m.StreamChunks, func() bool { return m.Live() > 0 }
		}},
	// An empty route is loopback: the generators' packets reach the sink
	// without an event of their own.
	{name: "workload.CBR", period: sim.Millisecond, owns: 1,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			c := workload.NewCBR(eng, nil, 12*netem.Mbps)
			return c.Start, c.Stop, c.Sent, nil
		}},
	{name: "workload.ParetoOnOff mid-burst", period: sim.Millisecond, owns: 2,
		build: func(t *testing.T, eng *sim.Engine) (func(), func(), func() uint64, func() bool) {
			p := workload.NewParetoOnOff(eng, nil, 12*netem.Mbps)
			return p.Start, p.Stop, p.Sent, p.Active
		}},
}

// TestStoppedOwnersOwnNoEvents holds every ticker owner to "stop means
// gone": stopping it unlinks what it had queued, no tick fires afterwards,
// and starting it twice runs one chain.
func TestStoppedOwnersOwnNoEvents(t *testing.T) {
	for _, o := range tickerOwners {
		t.Run(o.name, func(t *testing.T) {
			// run starts the owner once or twice, lets three periods pass
			// from the state to stop it in, and returns the ticks counted.
			run := func(eng *sim.Engine, twice bool) (stop func(), ticks func() uint64) {
				start, stop, ticks, ready := o.build(t, eng)
				start()
				if twice {
					eng.Schedule(eng.Now()+o.period/2, start)
				}
				for ready != nil && !ready() {
					if eng.Run(eng.Now() + o.period); eng.Now() > 1000*sim.Second {
						t.Fatal("never ready")
					}
				}
				eng.Run(eng.Now() + 3*o.period + o.period/2)
				return stop, ticks
			}

			eng := sim.NewEngine(7)
			stop, ticks := run(eng, false)
			once, queued := ticks(), eng.Pending()
			if once < 3 {
				t.Fatalf("%d ticks in three periods", once)
			}
			stop()
			if got := queued - eng.Pending(); got != o.owns {
				t.Errorf("stopping unlinked %d events, want the %d it owned", got, o.owns)
			}
			if !o.busy && eng.Pending() != 0 {
				t.Errorf("%d events queued after the owner stopped", eng.Pending())
			}
			fired := eng.Processed()
			eng.Run(eng.Now() + 10*o.period)
			if ticks() != once {
				t.Errorf("ticks went %d -> %d after the owner stopped", once, ticks())
			}
			if !o.busy && eng.Processed() != fired {
				t.Errorf("%d events fired after the owner stopped", eng.Processed()-fired)
			}

			if _, ticks := run(sim.NewEngine(7), true); ticks() != once {
				t.Errorf("%d ticks after Start twice, %d after Start once: two chains", ticks(), once)
			}
		})
	}
}

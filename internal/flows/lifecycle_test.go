package flows

import (
	"runtime"
	"testing"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// miceConfig is a web-only population of 4–16 KB objects over two subflows:
// ~120 events per flow, so admission, connection build and teardown are
// most of what a flow costs.
func miceConfig(total int, rate float64) Config {
	return Config{
		Algorithm:  "lia",
		TotalFlows: total,
		Arrivals:   Poisson{Rate: rate},
		Mix:        []ClassMix{{Web, 1}},
		WebSizes:   SizeDist{Alpha: 1.2, Min: 4 << 10, Max: 16 << 10},
	}
}

// TestMiceLifecycleAllocationBudget is the flow-lifecycle counterpart of
// sim's TestEngineSteadyStateAllocs: once every host pair's paths are cached,
// a flow's admit → finish may cost at most 4 heap allocations — today the
// completion closure and whatever core.New hands out — where it used to cost
// a connection, its subflows, their closures, a path set and every packet
// sent: 45. On this lossless population every connection is retired the
// moment its flow completes, so the run builds no more connections than were
// ever live at once.
func TestMiceLifecycleAllocationBudget(t *testing.T) {
	const warm, measured = 5000, 5000
	eng := sim.NewEngine(1)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(eng, ft, miceConfig(warm+measured, 2000))
	m.OnDrained = eng.Stop
	m.Start()
	for m.Stats().Offered < warm {
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := m.Stats().Completed
	eng.Run(eng.Now() + 60*sim.Second)
	runtime.ReadMemStats(&after)

	st := m.Stats()
	if st.Completed != warm+measured {
		t.Fatalf("completed %d of %d flows", st.Completed, warm+measured)
	}
	flows := st.Completed - from
	perFlow := float64(after.Mallocs-before.Mallocs) / float64(flows)
	t.Logf("%.2f mallocs per flow over %d flows; %d connections built for a peak of %d live", perFlow, flows, m.built, st.PeakLive)
	if perFlow > 4 {
		t.Errorf("%.2f mallocs per flow in steady state, budget 4", perFlow)
	}
	if m.built > uint64(st.PeakLive) {
		t.Errorf("%d connections built for a peak of %d live flows", m.built, st.PeakLive)
	}
}

// TestPopulationOwnsNoEventsAtDrain: a population alone on its engine leaves
// nothing behind. When the last flow finishes, every connection has been
// retired, so no RTO or probe tick of any of them is still queued.
func TestPopulationOwnsNoEventsAtDrain(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(eng, ft, miceConfig(6000, 2000))
	pending := -1
	m.OnDrained = func() {
		pending = eng.Pending()
		eng.Stop()
	}
	m.Start()
	eng.Run(60 * sim.Second)
	if st := m.Stats(); st.Completed != 6000 || pending != 0 {
		t.Errorf("%d of 6000 flows completed, %d events still queued at drain; want 6000 and 0", st.Completed, pending)
	}
}

// BenchmarkManagerLifecycle is the admit → finish cost of one flow in steady
// state, the whole lifecycle included: arrival draw, Paths, connection
// rebuild, a one-segment transfer, completion accounting, slot release.
func BenchmarkManagerLifecycle(b *testing.B) {
	eng := sim.NewEngine(1)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	const warm = 5000 // every host pair's paths cached
	cfg := miceConfig(warm+b.N, 20000)
	cfg.WebSizes = SizeDist{Min: 1000, Max: 1000}
	m := MustNew(eng, ft, cfg)
	m.OnDrained = eng.Stop
	m.Start()
	for m.Stats().Offered < warm {
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(eng.Now() + sim.Time(b.N)*sim.Second)
	b.StopTimer()
	if st := m.Stats(); st.Completed != uint64(warm+b.N) {
		b.Fatalf("completed %d of %d flows", st.Completed, warm+b.N)
	}
}

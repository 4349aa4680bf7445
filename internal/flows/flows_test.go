package flows

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mptcpsim/internal/check"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

func TestClassString(t *testing.T) {
	want := map[Class]string{Web: "web", Bulk: "bulk", Stream: "stream", Class(99): "unknown"}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, s)
		}
	}
	if Classes() != [3]Class{Web, Bulk, Stream} {
		t.Errorf("Classes() = %v", Classes())
	}
}

func TestSizeDistBoundsAndMean(t *testing.T) {
	eng := sim.NewEngine(7)
	d := SizeDist{Alpha: 1.2, Min: 16 << 10, Max: 8 << 20}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := d.Sample(eng.Rand())
		if x < d.Min || x > d.Max {
			t.Fatalf("sample %d outside [%d, %d]", x, d.Min, d.Max)
		}
		sum += float64(x)
	}
	emp, ana := sum/n, d.Mean()
	if math.Abs(emp-ana)/ana > 0.15 {
		t.Errorf("empirical mean %.0f vs analytic %.0f: off by more than 15%%", emp, ana)
	}
	// Degenerate configs fall back to Min rather than NaN.
	if got := (SizeDist{Min: 5}).Sample(eng.Rand()); got != 5 {
		t.Errorf("degenerate Sample = %d, want 5", got)
	}
	if got := (SizeDist{Min: 5}).Mean(); got != 5 {
		t.Errorf("degenerate Mean = %v, want 5", got)
	}
	// Alpha == 1 has its own analytic branch.
	one := SizeDist{Alpha: 1, Min: 1000, Max: 100000}
	if m := one.Mean(); m <= 1000 || m >= 100000 || math.IsNaN(m) {
		t.Errorf("alpha=1 Mean = %v out of range", m)
	}
}

func TestPoissonGaps(t *testing.T) {
	eng := sim.NewEngine(3)
	p := Poisson{Rate: 100}
	var sum sim.Time
	const n = 10000
	for i := 0; i < n; i++ {
		g := p.Next(eng.Rand())
		if g <= 0 {
			t.Fatalf("gap %v not positive", g)
		}
		sum += g
	}
	mean := float64(sum) / n / float64(sim.Second)
	if math.Abs(mean-0.01)/0.01 > 0.1 {
		t.Errorf("mean gap %.5fs, want ~0.01s", mean)
	}
	if g := (Poisson{}).Next(eng.Rand()); g < sim.Time(math.MaxInt64/8) {
		t.Errorf("zero-rate Poisson gap %v should be effectively infinite", g)
	}
}

func TestMMPP2Advances(t *testing.T) {
	eng := sim.NewEngine(11)
	m := &MMPP2{RateLow: 10, RateHigh: 1000, MeanLow: 100 * sim.Millisecond, MeanHigh: 100 * sim.Millisecond}
	var sum sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		g := m.Next(eng.Rand())
		if g <= 0 {
			t.Fatalf("gap %v not positive", g)
		}
		sum += g
	}
	// Equal sojourns: long-run rate is the mean of the two states, 505/s.
	rate := n / (float64(sum) / float64(sim.Second))
	if rate < 350 || rate > 700 {
		t.Errorf("long-run MMPP rate %.0f/s, want ~505/s", rate)
	}
	// A silent low state still advances to the high state instead of hanging.
	s := &MMPP2{RateLow: 0, RateHigh: 100, MeanLow: 10 * sim.Millisecond, MeanHigh: sim.Second}
	if g := s.Next(eng.Rand()); g <= 0 || g > 10*sim.Second {
		t.Errorf("silent-state gap %v unreasonable", g)
	}
}

func TestNewValidates(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, nil, Config{TotalFlows: 1}); err == nil {
		t.Error("nil net accepted")
	}
	if _, err := New(eng, ft, Config{}); err == nil {
		t.Error("zero TotalFlows accepted")
	}
	if _, err := New(eng, ft, Config{TotalFlows: 1, Mix: []ClassMix{{Web, -1}}}); err == nil {
		t.Error("negative mix weight accepted")
	}
	if _, err := New(eng, ft, Config{TotalFlows: 1, Mix: []ClassMix{{Web, 0}}}); err == nil {
		t.Error("zero-weight mix accepted")
	}
}

// runChurn drives one complete small churn run and returns the manager and
// its streamed reports.
func runChurn(t *testing.T, seed int64, cfg Config) (*Manager, []Report) {
	t.Helper()
	eng := sim.NewEngine(seed)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var reports []Report
	cfg.Emit = func(r Report) { reports = append(reports, r) }
	m, err := New(eng, ft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.OnDrained = eng.Stop
	m.Start()
	eng.Run(300 * sim.Second)
	m.CutLive()
	return m, reports
}

func TestManagerReconciles(t *testing.T) {
	cfg := Config{
		Algorithm:     "lia",
		TotalFlows:    400,
		MaxConcurrent: 20,
		Arrivals:      Poisson{Rate: 2000}, // storm: far beyond what 20 slots drain
		WebSizes:      SizeDist{Alpha: 1.2, Min: 8 << 10, Max: 64 << 10},
		BulkSizes:     SizeDist{Alpha: 1.3, Min: 64 << 10, Max: 256 << 10},
	}
	m, reports := runChurn(t, 42, cfg)
	st := m.Stats()

	if st.Offered != 400 {
		t.Fatalf("offered %d, want 400", st.Offered)
	}
	if st.Completed+st.ShedCapacity+st.Cut != st.Offered {
		t.Errorf("accounting leak: completed %d + shed %d + cut %d != offered %d",
			st.Completed, st.ShedCapacity, st.Cut, st.Offered)
	}
	if st.ShedCapacity == 0 {
		t.Error("overloaded run shed nothing; admission cap not exercised")
	}
	if st.Completed == 0 {
		t.Error("no flow completed")
	}
	if st.PeakLive > 20 {
		t.Errorf("peak live %d exceeds cap 20", st.PeakLive)
	}
	if len(reports) != int(st.Offered) {
		t.Errorf("%d reports for %d offered flows; every flow must be reported", len(reports), st.Offered)
	}
	// Per-class splits sum to the totals.
	var off, comp, shed, cut uint64
	for _, c := range Classes() {
		off += st.OfferedByClass[c]
		comp += st.CompletedByClass[c]
		shed += st.ShedByClass[c]
		cut += st.CutByClass[c]
	}
	if off != st.Offered || comp != st.Completed || shed != st.ShedCapacity || cut != st.Cut {
		t.Errorf("per-class splits don't sum: %d/%d %d/%d %d/%d %d/%d",
			off, st.Offered, comp, st.Completed, shed, st.ShedCapacity, cut, st.Cut)
	}
	// Pooled slots are bounded by peak concurrency, not offered flows.
	if m.SlotsAllocated() > st.PeakLive {
		t.Errorf("slots %d > peak live %d: pooling failed", m.SlotsAllocated(), st.PeakLive)
	}
	var completed uint64
	for _, r := range reports {
		if r.Shed == "" {
			completed++
		}
	}
	if completed != st.Completed {
		t.Errorf("%d completion reports for %d completed flows", completed, st.Completed)
	}
	// Completed flows carry the fields a report needs.
	for _, r := range reports {
		switch r.Shed {
		case "":
			if r.FCT <= 0 || r.Bytes == 0 || r.GoodputBps <= 0 || r.Subflows == 0 {
				t.Fatalf("incomplete completion report: %+v", r)
			}
			if r.Joules < 0 || math.IsNaN(r.Joules) {
				t.Fatalf("bad joules in %+v", r)
			}
		case ShedCapacity:
			if r.Bytes == 0 {
				t.Fatalf("capacity-shed report lost its offered size: %+v", r)
			}
		case ShedHorizon:
		default:
			t.Fatalf("unknown shed reason %q", r.Shed)
		}
	}
}

func TestManagerStreams(t *testing.T) {
	cfg := Config{
		Algorithm:  "lia",
		TotalFlows: 30,
		Arrivals:   Poisson{Rate: 50},
		Mix:        []ClassMix{{Stream, 1}},
		Stream:     StreamConfig{MeanDur: 2 * sim.Second},
	}
	m, reports := runChurn(t, 9, cfg)
	st := m.Stats()
	if st.Completed+st.Cut != 30 || st.ShedCapacity != 0 {
		t.Fatalf("stream accounting off: %+v", st)
	}
	var sawBytes bool
	for _, r := range reports {
		if r.Class != Stream {
			t.Fatalf("non-stream report %+v from all-stream mix", r)
		}
		if r.Shed == "" && r.Bytes > 0 {
			sawBytes = true
		}
	}
	if !sawBytes {
		t.Error("no completed stream delivered any bytes")
	}
}

func TestManagerDeterministic(t *testing.T) {
	cfg := Config{
		Algorithm:     "olia",
		TotalFlows:    250,
		MaxConcurrent: 30,
		Arrivals:      &MMPP2{RateLow: 100, RateHigh: 3000, MeanLow: 50 * sim.Millisecond, MeanHigh: 50 * sim.Millisecond},
		WebSizes:      SizeDist{Alpha: 1.2, Min: 8 << 10, Max: 64 << 10},
		BulkSizes:     SizeDist{Alpha: 1.3, Min: 64 << 10, Max: 256 << 10},
	}
	// Arrivals carry state, so each run gets a fresh copy.
	fresh := func() Config {
		c := cfg
		c.Arrivals = &MMPP2{RateLow: 100, RateHigh: 3000, MeanLow: 50 * sim.Millisecond, MeanHigh: 50 * sim.Millisecond}
		return c
	}
	_, a := runChurn(t, 5, fresh())
	_, b := runChurn(t, 5, fresh())
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("identical seeds produced different report streams")
	}
	_, c := runChurn(t, 6, fresh())
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", c) {
		t.Fatal("different seeds produced identical report streams")
	}
}

// TestManagerInvariantsSampled wires a checker in and verifies the watched
// set stays bounded: completed flows are unwatched.
func TestManagerInvariantsSampled(t *testing.T) {
	eng := sim.NewEngine(21)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	inv := check.New(eng)
	m := MustNew(eng, ft, Config{
		Algorithm:   "lia",
		TotalFlows:  120,
		Arrivals:    Poisson{Rate: 500},
		WebSizes:    SizeDist{Alpha: 1.2, Min: 8 << 10, Max: 32 << 10},
		BulkSizes:   SizeDist{Alpha: 1.3, Min: 32 << 10, Max: 128 << 10},
		Check:       inv,
		CheckSample: 8,
	})
	m.OnDrained = eng.Stop
	inv.Start()
	m.Start()
	eng.Run(300 * sim.Second)
	m.CutLive()
	inv.Final()
	if err := inv.Err(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if inv.Checks() == 0 {
		t.Error("checker never ran")
	}
	if st := m.Stats(); st.Completed+st.Cut != 120 {
		t.Fatalf("accounting: %+v", st)
	}
}

// TestChurn50kBounded is the acceptance-criteria run: >= 50,000 offered
// flows with >= 10,000 concurrent peak on a FatTree, under the supervisor's
// event budget, with memory bounded by peak concurrency (pooled slots, no
// per-flow retention).
func TestChurn50kBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-flow churn run is heavy; skipped in -short")
	}
	const total, cap = 50_000, 12_000
	var m *Manager
	var events uint64
	sup := supervise.New(supervise.Budget{Events: 500_000_000, HeapBytes: 4 << 30})
	rep := sup.Run(context.Background(), supervise.RunID{Seed: 1, Scenario: "fattree-overload", Phase: "churn50k"}, func(wd *supervise.Watchdog) error {
		eng := sim.NewEngine(1)
		wd.Attach(eng)
		ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
		if err != nil {
			return err
		}
		inv := check.New(eng)
		m = MustNew(eng, ft, Config{
			Algorithm:     "lia",
			TotalFlows:    total,
			MaxConcurrent: cap,
			// Arrival storm far beyond the 16-host tree's drain rate, so
			// the live population climbs to the cap and admission sheds.
			Arrivals:  Poisson{Rate: 20_000},
			WebSizes:  SizeDist{Alpha: 1.2, Min: 4 << 10, Max: 64 << 10},
			BulkSizes: SizeDist{Alpha: 1.3, Min: 32 << 10, Max: 256 << 10},
			Mix:       []ClassMix{{Web, 0.85}, {Bulk, 0.1}, {Stream, 0.05}},
			Check:     inv,
		})
		m.OnDrained = eng.Stop
		inv.Start()
		m.Start()
		eng.Run(120 * sim.Second)
		m.CutLive()
		events = eng.Processed()
		inv.Final()
		return inv.Err()
	})
	if rep.Outcome.Failed() {
		t.Fatalf("supervised churn run failed: %+v", rep)
	}
	st := m.Stats()
	if st.Offered != total {
		t.Fatalf("offered %d, want %d", st.Offered, total)
	}
	if st.PeakLive < 10_000 {
		t.Errorf("peak live %d, want >= 10000", st.PeakLive)
	}
	if st.Completed+st.ShedCapacity+st.Cut != st.Offered {
		t.Errorf("silent flow loss: %d + %d + %d != %d",
			st.Completed, st.ShedCapacity, st.Cut, st.Offered)
	}
	if st.ShedCapacity == 0 {
		t.Error("overloaded run shed nothing")
	}
	// The memory bound: slots track peak concurrency (<= cap), never the
	// 50k offered flows.
	if m.SlotsAllocated() > cap {
		t.Errorf("slots %d exceed cap %d", m.SlotsAllocated(), cap)
	}
	t.Logf("offered=%d completed=%d shed=%d cut=%d peak=%d slots=%d events=%d",
		st.Offered, st.Completed, st.ShedCapacity, st.Cut, st.PeakLive,
		m.SlotsAllocated(), events)
}

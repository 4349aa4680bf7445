package main

import (
	"errors"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeMatchesBenchmarkJSON runs every workload once at minimum size,
// untraced and traced, and every layer driver once, and holds the benchmark
// to BENCHMARK.json in both directions: the workloads it names are the
// workloads the benchmark has and does not mark extra, and the metrics it
// names are exactly the metrics a run prints.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var specNames, haveNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		if w.extra == "" {
			haveNames = append(haveNames, w.name)
		}
	}
	if !equalSets(specNames, haveNames) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark's gated workloads %v", specNames, haveNames)
	}

	var endToEnd, perLayer []string
	for _, m := range sp.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, n := range append(append(specNames, endToEnd...), perLayer...) {
		if !nameRE.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q does not match %s within 64 characters", n, nameRE)
		}
	}
	driverNames := map[string]bool{}
	for _, n := range driverMetricNames() {
		driverNames[n] = true
	}

	for i, w := range workloads {
		opt := smokeOptions(1, false)
		plain, plainDet := measure(w, opt)
		if !plain.Correct {
			t.Errorf("%s untraced: %d of %d operations failed: %v", w.name, plain.Failed, plain.Attempted, plainDet.Errors)
		}
		if got := sortedKeys(plain.Metrics); !equalSets(got, endToEnd) {
			t.Errorf("%s untraced printed %v, BENCHMARK.json end_to_end is %v", w.name, got, endToEnd)
		}
		for name, m := range plain.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, m.Value)
			}
		}

		// The drivers do not depend on the workload: once is enough.
		opt = smokeOptions(1, true)
		want := perLayer
		if i > 0 {
			opt.benchtime = ""
			want = nil
			for _, n := range perLayer {
				if !driverNames[n] {
					want = append(want, n)
				}
			}
		}
		traced, tracedDet := measure(w, opt)
		if !traced.Correct {
			t.Errorf("%s traced: %d of %d operations failed: %v", w.name, traced.Failed, traced.Attempted, tracedDet.Errors)
		}
		if got := sortedKeys(traced.Metrics); !equalSets(got, want) {
			t.Errorf("%s traced: printed but not in BENCHMARK.json per_layer: %v; named but not printed: %v",
				w.name, minus(got, want), minus(want, got))
		}
		// The traced pass repeats the untraced pass's seed in this process,
		// and fails the run if the two digests differ; the two runs here
		// are a third and fourth repetition of it.
		if plainDet.SimDigest == "" || plainDet.SimDigest != tracedDet.SimDigest {
			t.Errorf("%s: sim_digest %q untraced, %q traced", w.name, plainDet.SimDigest, tracedDet.SimDigest)
		}
		if i == 0 {
			for _, n := range []string{"sim.allocs_per_event", "netem.allocs_per_pkt"} {
				if m, ok := traced.Metrics[n]; !ok || m.Value != 0 {
					t.Errorf("%s = %v, want 0 allocations per operation", n, m.Value)
				}
			}
		}
	}
}

// TestDigestSeesTheSeed guards the digest against a workload that ignores
// its seed: two seeds of the seeded population workload must differ.
func TestDigestSeesTheSeed(t *testing.T) {
	w, _ := lookupWorkload("churn-mice")
	env := &repEnv{outDir: t.TempDir()}
	a, err := w.run(env, 1, sizeSmoke)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.run(env, 2, sizeSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == b.digest {
		t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
	}
}

func TestAttributeChargesEverySampleOnce(t *testing.T) {
	p := &cpuProfile{samples: []profSample{
		{nanos: 1e9, stack: []string{"mptcpsim/internal/sim.(*Engine).siftDown", "mptcpsim/internal/sim.(*Engine).loop", "main.main"}},
		{nanos: 2e9, stack: []string{"runtime.mallocgc", "mptcpsim/internal/topo.(*graph).path", "mptcpsim/internal/flows.(*Manager).admit"}},
		{nanos: 3e9, stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}},
		{nanos: 4e9, stack: []string{"math.Pow", "mptcpsim/internal/core.(*DTS).Increase", "mptcpsim/internal/tcp.(*Subflow).onAck"}},
		{nanos: 5e9, stack: []string{"mptcpsim/internal/exp.runChurn", "main.runFigure"}},
		{nanos: 6e9, stack: []string{"mptcpsim/internal/runner.MapErrCtx[...]", "main.main"}},
	}}
	l := attribute(p)
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v s, want %v", name, got, want)
		}
	}
	check("sim.busy_s", l.busy["sim"], 1)
	check("topo.rt_busy_s", l.rt["topo"], 2)
	check("runtime.bg_gc_busy_s", l.bgGC, 3)
	check("core.busy_s", l.busy["core"], 4)     // core has no rt bucket: math.Pow on its behalf is its own time
	check("other.busy_s", l.busy["other"], 5+6) // exp and runner are not ledger layers
	check("total", l.total, 21)
	var sum float64
	for _, v := range l.busy {
		sum += v
	}
	for _, v := range l.rt {
		sum += v
	}
	check("sum of buckets", sum+l.bgGC, l.total)
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		a, b, bound, spread float64
		higher, timing      bool
		want                string
	}{
		{10, 10.5, 0.1, 0.02, false, true, "unchanged"},
		{10, 11.5, 0.1, 0.02, false, true, "regressed"},
		{10, 8.5, 0.1, 0.02, false, true, "improved"},
		{10, 10.5, 0.1, 0.2, false, true, "unresolved"},
		{10, 10.5, 0.1, 0.2, false, false, "unchanged"}, // memory is not a timing
		{100, 85, 0.1, 0.02, true, true, "regressed"},
		{100, 120, 0.1, 0.02, true, true, "improved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.bound, c.higher, c.spread, c.timing); got != c.want {
			t.Errorf("verdict(%v → %v, bound %v, spread %v, higher %v) = %s, want %s", c.a, c.b, c.bound, c.spread, c.higher, got, c.want)
		}
	}
}

// TestBatchCPUCountsEachInputAtItsFastest: repetition n executes input
// n mod k, a failed execution is never an input's best, and the spread is
// the typical execution's distance from the best one.
func TestBatchCPUCountsEachInputAtItsFastest(t *testing.T) {
	rep := func(cpu, work float64) repSample { return repSample{cpu: cpu, out: outcome{work: work}} }
	failed := rep(0.1, 10)
	failed.err = errors.New("failed")
	reps := []repSample{
		rep(2, 10), rep(5, 20),
		rep(3, 10), rep(4, 20),
		failed, rep(6, 20),
	}
	cpu, work := batchCPU(reps, 2)
	if cpu != 2+4 || work != 10+20 {
		t.Errorf("batchCPU = %v s, %v work, want 6 s, 30", cpu, work)
	}
	// input 0: executions 2, 3 → (2.5 − 2) ÷ 2; input 1: 5, 4, 6 → (5 − 4) ÷ 4
	if got := repSpread(reps, 2); got != 0.25 {
		t.Errorf("repSpread = %v, want 0.25", got)
	}
}

func equalSets(a, b []string) bool {
	return len(minus(a, b)) == 0 && len(minus(b, a)) == 0
}

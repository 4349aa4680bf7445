package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/chaos"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// TestFlagsLowerToScenario: the command line is a front-end — every world
// flag lands in the one backend.Scenario, every -topo is a registered name
// with the size an ad-hoc run wants, and -churn swaps the measured
// connection for a population.
func TestFlagsLowerToScenario(t *testing.T) {
	base := backend.Scenario{
		Topology: "twopath", Algorithm: "lia", Subflows: 2, EnergyModel: "i7",
		Seed: 1, Horizon: 30 * sim.Second,
	}
	with := func(mut func(*backend.Scenario)) backend.Scenario {
		sc := base
		mut(&sc)
		return sc
	}
	cases := []struct {
		args string
		want backend.Scenario
	}{
		{"", base},
		{"-topo twopath -alg dts -duration 60s -seed 7", with(func(s *backend.Scenario) {
			s.Algorithm, s.Horizon, s.Seed = "dts", 60*sim.Second, 7
		})},
		{"-topo twopath -subflows 4 -bytes 20000000 -rwnd 45 -fault path1:down@2s,up@5s", with(func(s *backend.Scenario) {
			s.Subflows, s.TransferBytes, s.Rwnd, s.Faults = 4, 20000000, 45, "path1:down@2s,up@5s"
		})},
		{"-topo hetwireless -alg dts-lia -cross", with(func(s *backend.Scenario) {
			s.Topology, s.Algorithm, s.Cross = "hetwireless", "dts-lia", true
		})},
		{"-topo dumbbell", with(func(s *backend.Scenario) { s.Topology = "dumbbell" })},
		{"-topo ec2 -hosts 24 -subflows 4", with(func(s *backend.Scenario) {
			s.Topology, s.Net.Size, s.Subflows = "ec2", 24, 4
		})},
		{"-topo fattree -subflows 8 -hosts 16", with(func(s *backend.Scenario) {
			s.Topology, s.Net.Size, s.Subflows = "fattree", 4, 8
		})},
		{"-topo vl2", with(func(s *backend.Scenario) { s.Topology, s.Net.Size = "vl2", 8 })},
		{"-topo bcube", with(func(s *backend.Scenario) { s.Topology, s.Net.Size = "bcube", 3 })},
		{"-topo threepath", with(func(s *backend.Scenario) { s.Topology = "threepath" })},
		{"-topo fattree -churn 5000 -max-flows 600 -subflows 3", with(func(s *backend.Scenario) {
			s.Topology, s.Net.Size, s.Algorithm, s.Subflows, s.EnergyModel = "fattree", 4, "", 0, "none"
			s.Population = &flows.Config{Algorithm: "lia", Subflows: 3, TotalFlows: 5000, MaxConcurrent: 600}
		})},
		{"-topo ec2 -alg olia -churn 100 -arrival 250", with(func(s *backend.Scenario) {
			s.Topology, s.Net.Size, s.Algorithm, s.Subflows, s.EnergyModel = "ec2", 16, "", 0, "none"
			s.Population = &flows.Config{Algorithm: "olia", Subflows: 2, TotalFlows: 100, Arrivals: flows.Poisson{Rate: 250}}
		})},
	}
	for _, tc := range cases {
		inv, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("parse(%q): %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(inv.sc, tc.want) {
			t.Errorf("parse(%q) lowered to\n %+v\nwant\n %+v", tc.args, inv.sc, tc.want)
		}
	}
	for _, name := range topo.Names() {
		if _, err := parse([]string{"-topo", name}); err != nil {
			t.Errorf("-topo %s: %v", name, err)
		}
	}
}

// TestFlagsRejected: flag combinations that misdescribe the run are usage
// errors, and so is a world the one Validate refuses. The last three rows
// are behaviours that had drifted between front-ends: before the lowering,
// -cross on a topology with no cross entry was accepted and ignored and a
// non-positive -duration ran an empty simulation to exit 0.
func TestFlagsRejected(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-arrival 100", "require -churn"},
		{"-max-flows 10", "require -churn"},
		{"-topo fattree -churn 100 -bytes 1000", "incompatible"},
		{"-topo fattree -churn 100 -cross", "incompatible"},
		{"-topo fattree -churn 100 -fault path0:down@1s", "incompatible"},
		{"-topo fattree -churn 100 -rwnd 45", "incompatible"},
		{"-topo fattree -churn 100 -runs 2", "incompatible"},
		{"-topo twopath -churn 100", "multi-host"},
		{"-topo dumbbell -churn 100", "multi-host"},
		{"-topo mesh", "unknown topology"},
		{"-alg warp", "unknown algorithm"},
		{"-fault path1:sideways@2s", "directive"},
		{"-topo fattree -cross", "no cross-traffic entry"},
		{"-topo dumbbell -cross", "no cross-traffic entry"},
		{"-duration 0s", "horizon"},
		{"-duration -1s", "horizon"},
	}
	for _, tc := range cases {
		if _, err := parse(strings.Fields(tc.args)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestSubflowsMeanTheSameAsChaos: -subflows n on twopath fans n subflows
// round-robin over the two routes, exactly what a chaos scenario with the
// same topology name and count runs (it used to run 2 whatever n said); the
// default still wires one subflow per route.
func TestSubflowsMeanTheSameAsChaos(t *testing.T) {
	subflowPaths := func(sc backend.Scenario) []string {
		t.Helper()
		w, err := backend.Wire(sim.NewEngine(1), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range w.Conn.Subflows() {
			names = append(names, s.Path().Name)
		}
		return names
	}
	inv, err := parse(strings.Fields("-topo twopath -subflows 4"))
	if err != nil {
		t.Fatal(err)
	}
	got := subflowPaths(inv.sc)
	want := subflowPaths(chaos.Scenario{Topo: "twopath", Subflows: 4, Algorithm: "lia", HorizonMs: 1000}.Lower())
	if !reflect.DeepEqual(got, want) || len(got) != 4 {
		t.Errorf("-subflows 4 wires %v, chaos wires %v", got, want)
	}
	inv, _ = parse(nil)
	if got := subflowPaths(inv.sc); !reflect.DeepEqual(got, []string{"path0", "path1"}) {
		t.Errorf("default -subflows wires %v, want one subflow per route", got)
	}
}

// TestRunExitCodes drives run in-process through the exit-code contract:
// 0 for clean runs of every mode, 1 for usage, 3 when something was
// quarantined (the -inject self-test the flag exists for, and a batch with a
// failing seed), 4 when the context main builds from the signals is
// cancelled — before a batch starts, and in the middle of one.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		args string
		want int
	}{
		{"single", context.Background(), "-duration 1s -check -trace " + trace, 0},
		{"transfer under faults", context.Background(), "-bytes 2000000 -fault path1:down@200ms,up@600ms -check -timeout 1m", 0},
		{"batch", context.Background(), "-duration 1s -runs 3 -j 2 -check", 0},
		{"churn", context.Background(), "-topo fattree -churn 200 -max-flows 40 -check", 0},
		{"usage", context.Background(), "-topo fattree -cross", 1},
		{"soak self-test", context.Background(), "-soak 2 -inject 1 -soak-dir " + filepath.Join(dir, "quarantine"), 3},
		{"batch with unresolvable fault", context.Background(), "-duration 1s -runs 2 -fault path7:down@100ms", 3},
		{"cancelled before a batch", cancelled, "-duration 1s -runs 3", 4},
		{"cancelled before a single run", cancelled, "-duration 5s", 4},
	}
	for _, tc := range cases {
		if got := supervise.ExitCode(run(tc.ctx, strings.Fields(tc.args))); got != tc.want {
			t.Errorf("%s: mptcp-sim %s exited %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("-trace left no record: %v", err)
	}
	if arts, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.json")); len(arts) != 2 {
		t.Errorf("the soak self-test quarantined %d artifacts, want 2", len(arts))
	}

	// Mid-batch: the deadline lands while the first of three sequential
	// 10-minute simulations (seconds of wall clock each) is running, so one
	// seed is cut mid-run and the rest never start.
	ctx, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer stop()
	err := run(ctx, strings.Fields("-duration 600s -runs 3 -j 1"))
	if supervise.ExitCode(err) != 4 || !strings.Contains(err.Error(), "1 cut mid-run, 2 never started") {
		t.Errorf("batch cancelled mid-run: %v, want exit 4 with one run cut and two skipped", err)
	}
}

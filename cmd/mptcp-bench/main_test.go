package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim/internal/supervise"
)

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("0:0.15:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.05, 0.1, 0.15}
	if len(got) != len(want) {
		t.Fatalf("parseLoads(0:0.15:4) = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("parseLoads(0:0.15:4) = %v, want %v", got, want)
		}
	}
	if got, err := parseLoads("0.2"); err != nil || len(got) != 1 || got[0] != 0.2 {
		t.Errorf("parseLoads(0.2) = %v, %v", got, err)
	}
	if got, err := parseLoads("0, 0.1"); err != nil || len(got) != 2 || got[1] != 0.1 {
		t.Errorf("parseLoads(\"0, 0.1\") = %v, %v", got, err)
	}
	if got, err := parseLoads("0.3:0.3:1"); err != nil || len(got) != 1 || got[0] != 0.3 {
		t.Errorf("parseLoads(0.3:0.3:1) = %v, %v", got, err)
	}
	for _, bad := range []string{"1:0:5", "0:1:0", "0:1", "a,b", "0:1:2:3"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) accepted", bad)
		}
	}
}

func TestSweepSpecFromFlags(t *testing.T) {
	sw, err := sweepSpecFromFlags("hybrid", "", "", "", 0.05, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Topologies) == 0 || len(sw.Algorithms) == 0 || len(sw.Loads) == 0 {
		t.Fatalf("defaults left an axis empty: %+v", sw)
	}
	for _, a := range sw.Algorithms {
		if a == "coupled" {
			t.Error("default algorithm set includes coupled; the calibration excluded it")
		}
	}
	sw, err = sweepSpecFromFlags("fluid", "twopath-sym", " ewtcp , dts ", "0:0.1:3", -1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sw.Topologies, ",") != "twopath-sym" ||
		strings.Join(sw.Algorithms, ",") != "ewtcp,dts" ||
		len(sw.Loads) != 3 || sw.Backend != "fluid" || sw.SpotCheck != -1 || sw.Tol != 0.2 {
		t.Errorf("narrowed spec = %+v", sw)
	}
	if _, err := sweepSpecFromFlags("hybrid", "", "", "0:1:bad", 0.05, 0.1); err == nil {
		t.Error("bad -loads accepted")
	}
}

func TestRunRejectsSweepFlagMisuse(t *testing.T) {
	if err := run(context.Background(), []string{"-backend", "fluid"}); err == nil || !strings.Contains(err.Error(), "-backend requires -sweep") {
		t.Errorf("run(-backend without -sweep) = %v", err)
	}
	if err := run(context.Background(), []string{"-sweep", "-loads", "nope"}); err == nil {
		t.Error("run(-sweep -loads nope) accepted")
	}
	if err := run(context.Background(), []string{"-sweep", "-backend", "quantum", "-loads", "0"}); err == nil {
		t.Error("run(-sweep -backend quantum) accepted")
	}
}

// TestRunExitCodes drives run in-process through the exit-code contract:
// 0 for clean invocations, 1 for usage, 3 when a spot check disagrees, 4
// when the context main builds from the signals is cancelled — and a campaign
// interrupted that way resumes to the bytes of an uninterrupted one.
func TestRunExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	dir, ref := filepath.Join(t.TempDir(), "c"), filepath.Join(t.TempDir(), "ref")
	campaign := " -exp fig1,fig4 -seeds 1,2 -scale 0.05 -j 2"
	cases := []struct {
		name string
		ctx  context.Context
		args string
		want int
	}{
		{"list", context.Background(), "-list", 0},
		{"unknown experiment", context.Background(), "-exp nosuch", 1},
		{"sweep flag without -sweep", context.Background(), "-tol 0.1", 1},
		{"figures: -seeds without -campaign", context.Background(), "-exp fig1 -seeds 1,2", 1},
		{"campaign: -campaign with -resume", context.Background(), "-campaign " + dir + " -resume " + ref, 1},
		{"sweep: -records outside a campaign", context.Background(), "-sweep -records -loads 0", 1},
		{"one figure", context.Background(), "-exp fig1 -scale 0.05 -j 2", 0},
		{"sweep whose one spot check disagrees", context.Background(),
			"-sweep -topos twopath-asym -algs ewtcp -loads 0.05 -spot-check 1 -tol 0.001", 3},
		{"suite cancelled before it starts", cancelled, "-exp fig1,fig4 -scale 0.05", 4},
		{"campaign cancelled before it starts", cancelled, "-campaign " + dir + campaign, 4},
		{"resume", context.Background(), "-resume " + dir + " -j 2", 0},
		{"uninterrupted campaign", context.Background(), "-campaign " + ref + campaign, 0},
	}
	for _, tc := range cases {
		if got := supervise.ExitCode(run(tc.ctx, strings.Fields(tc.args))); got != tc.want {
			t.Errorf("%s: mptcp-bench %s exited %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(ref, "results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) || len(got) == 0 {
		t.Errorf("resumed campaign's results.txt differs from an uninterrupted one:\n%s\nwant:\n%s", got, want)
	}
}

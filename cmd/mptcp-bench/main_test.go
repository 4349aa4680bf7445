package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
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

// TestJSONListsFailuresByRunIndex: under a deadline no fig9 run can meet,
// -json lists every run as quarantined in run-index order, and its payload
// is byte-identical at -j 1 and -j 2.
func TestJSONListsFailuresByRunIndex(t *testing.T) {
	t.Chdir(t.TempDir()) // -json writes BENCH_<timestamp>.json here
	payload := func(j string) []byte {
		args := strings.Fields("-exp fig9 -scale 0.05 -reps 2 -timeout 40ms -json -j " + j)
		if got := supervise.ExitCode(run(context.Background(), args)); got != supervise.ExitQuarantined {
			t.Fatalf("-j %s: exited %d, want %d", j, got, supervise.ExitQuarantined)
		}
		names, err := filepath.Glob("BENCH_*.json")
		if err != nil || len(names) != 1 {
			t.Fatalf("-j %s: BENCH reports %v (%v), want one", j, names, err)
		}
		data, err := os.ReadFile(names[0])
		if err == nil {
			err = os.Remove(names[0])
		}
		if err != nil {
			t.Fatal(err)
		}
		var report struct{ Payload json.RawMessage }
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatal(err)
		}
		return report.Payload
	}
	seq, par := payload("1"), payload("2")
	var p benchPayload
	if err := json.Unmarshal(seq, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Quarantined) < 2 || int64(len(p.Quarantined)) != p.Outcomes.TimedOut {
		t.Fatalf("quarantined %q, outcomes %v: want every run listed", p.Quarantined, p.Outcomes)
	}
	for i, q := range p.Quarantined {
		if want := "fig9/fig9[" + strconv.Itoa(i) + "] "; !strings.HasPrefix(q, want) {
			t.Errorf("quarantined[%d] = %q, want it to name run %d (prefix %q)", i, q, i, want)
		}
	}
	if !bytes.Equal(seq, par) {
		t.Errorf("payload differs across -j:\n-j 1: %s\n-j 2: %s", seq, par)
	}
}

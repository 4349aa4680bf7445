package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
)

// TestGenerateDeterministic pins that scenario i depends only on (seed, i)
// and that every organically generated scenario at least builds: a
// generator that emits unbuildable scenarios would pollute the quarantine
// with its own bugs.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 40; i++ {
		a, b := GenerateAt(1, i), GenerateAt(1, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("GenerateAt(1, %d) not deterministic:\n%+v\n%+v", i, a, b)
		}
		if _, err := backend.Wire(sim.NewEngine(a.Seed), a.Lower(), nil); err != nil {
			t.Errorf("scenario %d (%s) does not build: %v", i, a, err)
		}
	}
	if reflect.DeepEqual(GenerateAt(1, 0), GenerateAt(2, 0)) {
		t.Fatalf("different campaign seeds produced the same scenario")
	}
}

// shortBudget is a generous deterministic budget for test scenarios.
func shortBudget() supervise.Budget {
	return supervise.Budget{Wall: 30 * time.Second, Events: DefaultMaxEvents}
}

// runScenario executes sc under a fresh supervisor and returns the report.
func runScenario(t *testing.T, sc Scenario) supervise.Report {
	t.Helper()
	return sc.runUnder(shortBudget(), "test")
}

// baseScenario is a small twopath scenario used as the failpoint carrier.
func baseScenario() Scenario {
	return Scenario{
		Seed: 7, Topo: "twopath", Subflows: 3, Algorithm: "lia",
		RateMbps: [2]int64{20, 10}, DelayMs: 10, QueueLimit: 100,
		HorizonMs: 2000, Cross: true,
		Faults: "path0:loss@500ms=0.02;path1:delay@800ms=40ms",
	}
}

func TestTripFailpointSignature(t *testing.T) {
	sc := baseScenario()
	sc.Failpoint = "trip@1s"
	rep := runScenario(t, sc)
	if rep.Outcome != supervise.Quarantined {
		t.Fatalf("outcome = %v, want Quarantined", rep.Outcome)
	}
	if sig := Signature(rep.Err); sig != "invariant.chaos.failpoint" {
		t.Fatalf("signature = %q, want invariant.chaos.failpoint (msg: %s)", sig, rep.Err.Msg)
	}
}

func TestPanicFailpointQuarantined(t *testing.T) {
	sc := baseScenario()
	sc.Failpoint = "panic@1s"
	rep := runScenario(t, sc)
	if rep.Outcome != supervise.Quarantined || rep.Err.Kind != supervise.KindPanic {
		t.Fatalf("outcome = %v kind = %v, want quarantined panic", rep.Outcome, rep.Err)
	}
	if sig := Signature(rep.Err); sig != "panic" {
		t.Fatalf("signature = %q, want panic", sig)
	}
	if len(rep.Err.Stack) == 0 {
		t.Fatalf("panic failure carries no stack")
	}
}

// TestSpinFailpointTimesOut pins that a simulated hang is ended by the wall
// deadline and classified as a timeout, not retried.
func TestSpinFailpointTimesOut(t *testing.T) {
	sc := baseScenario()
	sc.Failpoint = "spin@200ms=400ms"
	rep := sc.runUnder(supervise.Budget{Wall: 100 * time.Millisecond}, "spin")
	if rep.Outcome != supervise.TimedOut {
		t.Fatalf("outcome = %v, want TimedOut (err: %+v)", rep.Outcome, rep.Err)
	}
	if sig := Signature(rep.Err); sig != "timeout" {
		t.Fatalf("signature = %q, want timeout", sig)
	}
}

// TestShrinkMinimisesTripScenario checks the shrinker strips the noise —
// fault clauses, cross traffic, extra subflows — while preserving the
// failure signature, and that the shrunk scenario still reproduces.
func TestShrinkMinimisesTripScenario(t *testing.T) {
	sc := baseScenario()
	sc.Failpoint = "trip@700ms"
	rep := runScenario(t, sc)
	if !rep.Outcome.Failed() {
		t.Fatalf("carrier scenario did not fail")
	}
	sig := Signature(rep.Err)

	shrunk, runs := Shrink(sc, sig, shortBudget(), DefaultShrinkRuns)
	if runs == 0 {
		t.Fatalf("shrink spent no runs")
	}
	if shrunk.Faults != "" {
		t.Errorf("faults survived shrinking: %q", shrunk.Faults)
	}
	if shrunk.Cross {
		t.Errorf("cross traffic survived shrinking")
	}
	if shrunk.Subflows > 1 {
		t.Errorf("subflows = %d after shrinking, want 1", shrunk.Subflows)
	}
	if shrunk.HorizonMs >= sc.HorizonMs {
		t.Errorf("horizon did not shrink: %dms", shrunk.HorizonMs)
	}
	rep2 := runScenario(t, shrunk)
	if !rep2.Outcome.Failed() || Signature(rep2.Err) != sig {
		t.Fatalf("shrunk scenario does not reproduce %q: %+v", sig, rep2.Err)
	}
}

// TestGenerateChurnScenarios pins that the generator arms churn populations
// on a reasonable fraction of datacenter scenarios, that churn scenarios
// run clean organically, and that churn is never generated for single-route
// topologies.
func TestGenerateChurnScenarios(t *testing.T) {
	churned := 0
	for i := 0; i < 60; i++ {
		sc := GenerateAt(3, i)
		switch sc.Topo {
		case "fattree", "vl2", "bcube":
		default:
			if sc.ChurnFlows > 0 {
				t.Fatalf("scenario %d (%s): churn on single-route topology", i, sc)
			}
		}
		if sc.ChurnFlows > 0 {
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("60 scenarios generated no churn population")
	}

	// One churn scenario end to end: clean run, and the accounting check in
	// Run actually executes (CutLive balances the ledger at the horizon).
	sc := Scenario{
		Seed: 11, Topo: "fattree", Arity: 4, Subflows: 2, Algorithm: "lia",
		HorizonMs: 1500, ChurnFlows: 300, ChurnRate: 300, ChurnCap: 40,
		Faults: "path0:down@400ms,up@900ms",
	}
	rep := runScenario(t, sc)
	if rep.Outcome.Failed() {
		t.Fatalf("churn scenario failed: %+v", rep.Err)
	}
}

// TestShrinkChurnScenario pins the churn-specific shrink stages: the
// population halves away when it is irrelevant to the failure, and the
// twopath collapse clears every churn field.
func TestShrinkChurnScenario(t *testing.T) {
	sc := Scenario{
		Seed: 13, Topo: "fattree", Arity: 4, Subflows: 3, Algorithm: "olia",
		HorizonMs: 2000, ChurnFlows: 400, ChurnRate: 300, ChurnCap: 50,
		Faults:    "path0:loss@500ms=0.02",
		Failpoint: "trip@700ms",
	}
	rep := runScenario(t, sc)
	if !rep.Outcome.Failed() {
		t.Fatal("carrier scenario did not fail")
	}
	sig := Signature(rep.Err)

	shrunk, runs := Shrink(sc, sig, shortBudget(), DefaultShrinkRuns)
	if runs == 0 {
		t.Fatal("shrink spent no runs")
	}
	if shrunk.ChurnFlows != 0 || shrunk.ChurnRate != 0 || shrunk.ChurnCap != 0 {
		t.Errorf("churn fields survived shrinking: flows=%d rate=%g cap=%d",
			shrunk.ChurnFlows, shrunk.ChurnRate, shrunk.ChurnCap)
	}
	rep2 := runScenario(t, shrunk)
	if !rep2.Outcome.Failed() || Signature(rep2.Err) != sig {
		t.Fatalf("shrunk scenario does not reproduce %q: %+v", sig, rep2.Err)
	}
}

// TestSoakDeterministicAcrossWorkers is the acceptance criterion: a
// campaign with injected failures yields identical scenarios, failure
// indexes, signatures and artifacts at every pool width.
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*SoakResult, string) {
		dir := t.TempDir()
		res, err := Soak(SoakConfig{
			Seed: 1, Count: 10, Workers: workers, Dir: dir, Inject: 5,
		})
		if err != nil {
			t.Fatalf("Soak(workers=%d): %v", workers, err)
		}
		return res, dir
	}
	seq, seqDir := run(1)
	par, parDir := run(4)

	if seq.Scenarios != 10 || par.Scenarios != 10 {
		t.Fatalf("scenario counts: %d vs %d, want 10", seq.Scenarios, par.Scenarios)
	}
	// Inject=5 arms scenarios 4 (trip) and 9 (panic); organic failures, if
	// any, are deterministic too.
	if len(seq.Failures) < 2 {
		t.Fatalf("j=1 quarantined %d scenarios, want at least the 2 injected", len(seq.Failures))
	}
	if len(seq.Failures) != len(par.Failures) {
		t.Fatalf("failure counts differ: j=1 %d, j=4 %d", len(seq.Failures), len(par.Failures))
	}
	for i := range seq.Failures {
		a, b := seq.Failures[i], par.Failures[i]
		if a.Index != b.Index || a.Signature != b.Signature || a.Outcome != b.Outcome {
			t.Errorf("failure %d differs: j=1 {%d %s %s}, j=4 {%d %s %s}",
				i, a.Index, a.Signature, a.Outcome, b.Index, b.Signature, b.Outcome)
		}
	}
	if seq.Counts != par.Counts {
		t.Fatalf("supervisor counts differ: %v vs %v", seq.Counts, par.Counts)
	}

	// Artifacts must be byte-identical (paths differ by temp dir).
	for _, f := range seq.Failures {
		if f.Artifact == "" {
			t.Fatalf("failure %d has no artifact", f.Index)
		}
		a, err := os.ReadFile(f.Artifact)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parDir, filepath.Base(f.Artifact)))
		if err != nil {
			t.Fatalf("j=4 artifact missing: %v", err)
		}
		if string(a) != string(b) {
			t.Errorf("artifact %s differs across worker counts", filepath.Base(f.Artifact))
		}
	}
	_ = seqDir
}

// TestArtifactRoundTrip is the quarantine round-trip the satellite demands:
// a soak writes an artifact, and replaying it reproduces the same invariant
// trip.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res, err := Soak(SoakConfig{Seed: 42, Count: 2, Workers: 2, Dir: dir, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) < 2 {
		t.Fatalf("quarantined %d scenarios, want 2 (trip + panic injected)", len(res.Failures))
	}
	for _, f := range res.Failures {
		rr, err := Replay(f.Artifact, supervise.Budget{})
		if err != nil {
			t.Fatalf("Replay(%s): %v", f.Artifact, err)
		}
		if !rr.Match {
			t.Errorf("replay of %s observed %q, artifact records %q",
				filepath.Base(f.Artifact), rr.Signature, rr.Artifact.Signature)
		}
	}
}

// TestSoakRequiresBound pins the config validation.
func TestSoakRequiresBound(t *testing.T) {
	if _, err := Soak(SoakConfig{Seed: 1}); err == nil {
		t.Fatal("Soak without Count or Duration succeeded")
	}
}

func TestDecodeArtifactRejects(t *testing.T) {
	if _, err := DecodeArtifact([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := DecodeArtifact([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestQuarantineCorpus replays every committed artifact: each must still
// fail with its recorded signature. This is the regression net for the
// nightly soak — a behaviour change that un-reproduces a quarantined
// failure fails here first.
func TestQuarantineCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "quarantine", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("quarantine corpus is empty; expected at least one committed artifact")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			rr, err := Replay(path, supervise.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if !rr.Match {
				t.Fatalf("observed %q, artifact records %q", rr.Signature, rr.Artifact.Signature)
			}
		})
	}
}

// TestFailpointParseErrors pins that malformed failpoints are build errors,
// not panics.
func TestFailpointParseErrors(t *testing.T) {
	for _, fp := range []string{"panic", "panic@xyz", "spin@1s", "spin@1s=bad", "explode@1s"} {
		sc := baseScenario()
		sc.Failpoint = fp
		if err := sc.Run(nil); err == nil || !strings.Contains(err.Error(), "failpoint") {
			t.Errorf("failpoint %q: err = %v, want failpoint error", fp, err)
		}
	}
}

// FuzzDecodeArtifact fuzzes the replay decode path: arbitrary bytes must
// produce an error or a valid artifact, never a panic.
func FuzzDecodeArtifact(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"signature":"panic","scenario":{"seed":1,"topo":"twopath","subflows":2,"algorithm":"lia","horizon_ms":1000}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`not json`))
	seed, _ := json.Marshal(Artifact{Version: 1, Signature: "invariant.chaos.failpoint", Scenario: baseScenario()})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		if err == nil && a == nil {
			t.Fatal("nil artifact with nil error")
		}
	})
}

package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mptcpsim/internal/exp"
	"mptcpsim/internal/supervise"
)

func TestExpandManifestOrderAndValidation(t *testing.T) {
	m, err := Expand(Spec{Experiments: []string{"fig4", "fig1"}, Seeds: []int64{2, 1}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, u := range m.Units {
		ids = append(ids, u.ID())
	}
	want := []string{"fig4_all_all_seed2", "fig4_all_all_seed1", "fig1_all_all_seed2", "fig1_all_all_seed1"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("expansion order %v, want %v (spec order is merge order)", ids, want)
	}

	if _, err := Expand(Spec{Experiments: []string{"nope"}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := Expand(Spec{Experiments: []string{"fig1", "fig1"}}); err == nil {
		t.Fatal("duplicate experiment accepted")
	}
	if _, err := Expand(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestExpandSplitsDeclaredAxes pins the finer-grained expansion: a figure
// that declares algorithm/scenario axes gets one unit per (scenario,
// algorithm, seed) cell, scenario-major to mirror the figure's own row
// order, while undeclared figures keep the coarse "all" unit.
func TestExpandSplitsDeclaredAxes(t *testing.T) {
	faultsExp, ok := exp.Lookup("faults")
	if !ok {
		t.Fatal("faults experiment not registered")
	}
	if len(faultsExp.Algorithms) == 0 || len(faultsExp.Scenarios) == 0 {
		t.Fatal("faults declares no splittable axes; this test expects both")
	}

	m, err := Expand(Spec{Experiments: []string{"faults", "fig1"}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	wantFaults := len(faultsExp.Scenarios) * len(faultsExp.Algorithms) * 2
	if got := len(m.Units); got != wantFaults+2 {
		t.Fatalf("expanded %d units, want %d faults cells + 2 coarse fig1 units", got, wantFaults)
	}
	if id := m.Units[0].ID(); id != "faults_ewtcp_outage_seed1" {
		t.Errorf("first unit %s, want faults_ewtcp_outage_seed1 (scenario-major, alg, then seed)", id)
	}
	if id := m.Units[1].ID(); id != "faults_ewtcp_outage_seed2" {
		t.Errorf("second unit %s, want faults_ewtcp_outage_seed2 (seeds innermost)", id)
	}
	if id := m.Units[2].ID(); id != "faults_coupled_outage_seed1" {
		t.Errorf("third unit %s, want faults_coupled_outage_seed1 (algorithms before scenarios)", id)
	}
	if id := m.Units[wantFaults].ID(); id != "fig1_all_all_seed1" {
		t.Errorf("first fig1 unit %s, want coarse fig1_all_all_seed1", id)
	}

	// The pinned axes reach the unit's exp.Config; the coarse sentinel
	// must not (an "all" filter would select nothing).
	var mu sync.Mutex
	cfgs := map[string]exp.Config{}
	fe := func(ctx context.Context, u Unit, udir string, cfg exp.Config) (UnitOutput, error) {
		mu.Lock()
		cfgs[u.ID()] = cfg
		mu.Unlock()
		if err := os.WriteFile(filepath.Join(udir, "table.txt"), []byte(u.ID()+"\n"), 0o644); err != nil {
			return UnitOutput{}, supervise.Transient(err)
		}
		return UnitOutput{Events: 1}, nil
	}
	dir := t.TempDir()
	spec := Spec{Experiments: []string{"faults", "fig1"}, Seeds: []int64{1}}
	if _, err := Start(context.Background(), dir, spec, Options{Workers: 2, Exec: fe}); err != nil {
		t.Fatal(err)
	}
	got := cfgs["faults_dts_flap_seed1"]
	if got.Algorithm != "dts" || got.Scenario != "flap" {
		t.Errorf("pinned unit ran with filter %q/%q, want dts/flap", got.Algorithm, got.Scenario)
	}
	coarse := cfgs["fig1_all_all_seed1"]
	if coarse.Algorithm != "" || coarse.Scenario != "" {
		t.Errorf("coarse unit ran with filter %q/%q, want empty", coarse.Algorithm, coarse.Scenario)
	}
}

// fakeExec is a deterministic unit executor for journal/merge tests: cheap,
// content derived only from the unit identity, and it records which units
// ran. fail selects unit IDs that fail permanently; transientFails counts
// down Transient failures before success.
type fakeExec struct {
	mu             sync.Mutex
	ran            []string
	fail           map[string]bool
	transientFails map[string]int
}

func (f *fakeExec) exec(ctx context.Context, u Unit, udir string, cfg exp.Config) (UnitOutput, error) {
	f.mu.Lock()
	f.ran = append(f.ran, u.ID())
	if n := f.transientFails[u.ID()]; n > 0 {
		f.transientFails[u.ID()] = n - 1
		f.mu.Unlock()
		return UnitOutput{}, supervise.Transient(errors.New("flaky filesystem"))
	}
	f.mu.Unlock()
	if f.fail != nil && f.fail[u.ID()] {
		return UnitOutput{}, fmt.Errorf("deterministic failure in %s", u.ID())
	}
	table := fmt.Sprintf("== %s ==\nrow for seed %d\n", u.ID(), u.Seed)
	if err := os.WriteFile(filepath.Join(udir, "table.txt"), []byte(table), 0o644); err != nil {
		return UnitOutput{}, supervise.Transient(err)
	}
	return UnitOutput{Events: uint64(u.Seed) * 100}, nil
}

func (f *fakeExec) runCount(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, r := range f.ran {
		if r == id {
			n++
		}
	}
	return n
}

var fakeSpec = Spec{Experiments: []string{"fig1", "fig4"}, Seeds: []int64{1, 2}, Scale: 0.1}

// mustOutputs reads the two merged artifacts a finished campaign must have.
func mustOutputs(t *testing.T, dir string) (results, payload string) {
	t.Helper()
	r, err := os.ReadFile(filepath.Join(dir, "results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(r), string(p)
}

func TestJournalTornTailRecovered(t *testing.T) {
	ref := t.TempDir()
	fe := &fakeExec{}
	if sum, err := Start(context.Background(), ref, fakeSpec, Options{Workers: 1, Exec: fe.exec}); err != nil || !sum.Merged {
		t.Fatalf("reference campaign: sum=%+v err=%v", sum, err)
	}
	wantResults, wantPayload := mustOutputs(t, ref)

	dir := t.TempDir()
	fe2 := &fakeExec{}
	if _, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe2.exec}); err != nil {
		t.Fatal(err)
	}
	// Tear the journal's final line mid-write, as a crash between write and
	// newline would. The victim unit's commit is lost; resume must detect
	// the torn line, truncate it away and re-run exactly that unit.
	jpath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(jpath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	fe3 := &fakeExec{}
	sum, err := Resume(context.Background(), dir, Options{Workers: 1, Exec: fe3.exec})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 1 || sum.Reused != 3 {
		t.Fatalf("resume after torn line: ran=%d reused=%d, want 1/3", sum.Ran, sum.Reused)
	}
	if !sum.Merged {
		t.Fatal("resume did not merge")
	}
	gotResults, gotPayload := mustOutputs(t, dir)
	if gotResults != wantResults {
		t.Errorf("results.txt differs after torn-journal resume:\n%s\nwant:\n%s", gotResults, wantResults)
	}
	if gotPayload != wantPayload {
		t.Errorf("campaign.json differs after torn-journal resume:\n%s\nwant:\n%s", gotPayload, wantPayload)
	}
}

func TestJournalInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	fe := &fakeExec{}
	if _, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe.exec}); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST line: not a torn tail, must refuse to resume
	// rather than silently dropping committed state.
	corrupt := "garbage{{{\n" + string(data[strings.IndexByte(string(data), '\n')+1:])
	if err := os.WriteFile(jpath, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), dir, Options{Workers: 1, Exec: fe.exec}); err == nil {
		t.Fatal("interior journal corruption accepted")
	}
}

func TestDigestMismatchReruns(t *testing.T) {
	dir := t.TempDir()
	fe := &fakeExec{}
	if _, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe.exec}); err != nil {
		t.Fatal(err)
	}
	wantResults, wantPayload := mustOutputs(t, dir)

	// Hand-edit one unit's artifact; its journaled digest no longer
	// matches, so resume must re-run it instead of trusting the artifact.
	victim := Unit{Experiment: "fig4", Algorithm: "all", Scenario: "all", Seed: 2}
	if err := os.WriteFile(filepath.Join(victim.Dir(dir), "table.txt"), []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fe2 := &fakeExec{}
	sum, err := Resume(context.Background(), dir, Options{Workers: 1, Exec: fe2.exec})
	if err != nil {
		t.Fatal(err)
	}
	if fe2.runCount(victim.ID()) != 1 || sum.Ran != 1 {
		t.Fatalf("tampered unit not re-run exactly once (ran=%v)", fe2.ran)
	}
	gotResults, gotPayload := mustOutputs(t, dir)
	if gotResults != wantResults || gotPayload != wantPayload {
		t.Error("outputs differ after digest-mismatch re-run")
	}
}

// TestQuarantinedUnitDegradesToNote: a unit that fails for good — its
// executor returns an error, or panics — is journaled as quarantined with a
// one-line note, merges as that note, and is not re-run by a resume. What the
// supervisor recovered from a panic beside the message (kind, stack) goes to
// the log instead of being dropped.
func TestQuarantinedUnitDegradesToNote(t *testing.T) {
	badID := "fig4_all_all_seed1"
	for _, tc := range []struct {
		name, note string
		exec       func(*fakeExec) func(context.Context, Unit, string, exp.Config) (UnitOutput, error)
	}{
		{"error", "deterministic failure in " + badID, func(fe *fakeExec) func(context.Context, Unit, string, exp.Config) (UnitOutput, error) {
			fe.fail = map[string]bool{badID: true}
			return fe.exec
		}},
		{"panic", "panic: boom in " + badID, func(fe *fakeExec) func(context.Context, Unit, string, exp.Config) (UnitOutput, error) {
			return panickyExec(fe, badID)
		}},
	} {
		dir := t.TempDir()
		var mu sync.Mutex
		var logged []string
		var entry Entry
		sum, err := Start(context.Background(), dir, fakeSpec, Options{
			Workers: 1, Exec: tc.exec(&fakeExec{}),
			Log: func(format string, args ...any) {
				mu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				mu.Unlock()
			},
			OnUnitDone: func(u Unit, e Entry) {
				if u.ID() == badID {
					entry = e
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Quarantined != 1 || sum.Ran != 4 || !sum.Merged {
			t.Fatalf("%s: sum=%+v, want four units run, one of them quarantined, and a merge", tc.name, sum)
		}
		if entry.Status != StatusQuarantined || entry.Note != tc.note || entry.Attempts != 1 {
			t.Errorf("%s: journal entry = %+v, want quarantined on the first attempt with the note %q", tc.name, entry, tc.note)
		}
		results, payload := mustOutputs(t, dir)
		if !strings.Contains(results, "== "+badID+": quarantined ==") || !strings.Contains(results, tc.note) {
			t.Errorf("%s: merged results missing quarantine stanza:\n%s", tc.name, results)
		}
		if !strings.Contains(payload, `"status": "quarantined"`) {
			t.Errorf("%s: payload missing quarantined status:\n%s", tc.name, payload)
		}
		log := strings.Join(logged, "\n")
		if !strings.Contains(log, "unit "+badID+" quarantined: "+tc.note) {
			t.Errorf("%s: quarantine not logged:\n%s", tc.name, log)
		}
		if tc.name == "panic" && (!strings.Contains(log, "unit "+badID+" panic") ||
			!strings.Contains(log, "panickyExec") || !strings.Contains(log, "goroutine ")) {
			t.Errorf("log does not carry the panic's kind and a stack naming the executor:\n%s", log)
		}

		// Resume must not re-run a deterministic failure.
		fe2 := &fakeExec{}
		sum2, err := Resume(context.Background(), dir, Options{Workers: 1, Exec: tc.exec(fe2)})
		if err != nil {
			t.Fatal(err)
		}
		if len(fe2.ran) != 0 || sum2.Reused != 4 {
			t.Fatalf("%s: resume re-ran quarantined unit: ran=%v sum=%+v", tc.name, fe2.ran, sum2)
		}
	}
}

// panickyExec is fe.exec with one unit that panics; the function's name is
// what the logged stack must show.
func panickyExec(fe *fakeExec, bad string) func(context.Context, Unit, string, exp.Config) (UnitOutput, error) {
	return func(ctx context.Context, u Unit, udir string, cfg exp.Config) (UnitOutput, error) {
		if u.ID() == bad {
			panic("boom in " + bad)
		}
		return fe.exec(ctx, u, udir, cfg)
	}
}

func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	dir := t.TempDir()
	flaky := "fig1_all_all_seed2"
	fe := &fakeExec{transientFails: map[string]int{flaky: 2}}
	attempts := map[string]int{}
	sum, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe.exec, Retries: 2,
		OnUnitDone: func(u Unit, e Entry) { attempts[u.ID()] = e.Attempts }})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 0 || sum.Ran != 4 {
		t.Fatalf("transient failures not retried to success: %+v", sum)
	}
	if n := fe.runCount(flaky); n != 3 {
		t.Fatalf("flaky unit ran %d times, want 3 (two transient failures + success)", n)
	}
	if attempts[flaky] != 3 || attempts["fig1_all_all_seed1"] != 1 {
		t.Fatalf("journaled attempts = %v, want 3 for the flaky unit and 1 for the others", attempts)
	}
}

func TestTransientExhaustionQuarantines(t *testing.T) {
	dir := t.TempDir()
	flaky := "fig1_all_all_seed1"
	fe := &fakeExec{transientFails: map[string]int{flaky: 99}}
	sum, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe.exec, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined != 1 {
		t.Fatalf("exhausted transient retries did not quarantine: %+v", sum)
	}
}

// TestInterruptDuringRetryBackoff: a cancellation that lands while a unit
// waits to retry leaves the unit pending — not run again, not quarantined,
// not journaled — and the invocation interrupted; resume then runs it.
func TestInterruptDuringRetryBackoff(t *testing.T) {
	dir := t.TempDir()
	flaky := "fig1_all_all_seed2" // the second unit: the first is checkpointed before the cancel
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fe := &fakeExec{}
	sum, err := Start(ctx, dir, fakeSpec, Options{Workers: 1, Retries: 2,
		Exec: func(ctx context.Context, u Unit, udir string, cfg exp.Config) (UnitOutput, error) {
			if u.ID() == flaky {
				fe.exec(ctx, u, udir, cfg) // counts the attempt
				cancel()
				return UnitOutput{}, supervise.Transient(errors.New("flaky filesystem"))
			}
			return fe.exec(ctx, u, udir, cfg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Interrupted || sum.Ran != 1 || sum.Pending != 3 || sum.Quarantined != 0 || sum.Merged {
		t.Fatalf("sum=%+v, want interrupted with one unit checkpointed and three pending", sum)
	}
	if n := fe.runCount(flaky); n != 1 {
		t.Errorf("the unit ran %d times, want no attempt after the cancel", n)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(journal), flaky) || strings.Count(string(journal), "\n") != 1 {
		t.Errorf("journal should hold the first unit only:\n%s", journal)
	}

	fe2 := &fakeExec{}
	sum2, err := Resume(context.Background(), dir, Options{Workers: 1, Exec: fe2.exec})
	if err != nil {
		t.Fatal(err)
	}
	if fe2.runCount(flaky) != 1 || sum2.Ran != 3 || sum2.Reused != 1 || !sum2.Merged || sum2.Interrupted {
		t.Fatalf("resume: ran=%v sum=%+v, want the three pending units run and a merge", fe2.ran, sum2)
	}
}

func TestStartRefusesDifferentSpec(t *testing.T) {
	dir := t.TempDir()
	fe := &fakeExec{}
	if _, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe.exec}); err != nil {
		t.Fatal(err)
	}
	other := fakeSpec
	other.Seeds = []int64{7}
	if _, err := Start(context.Background(), dir, other, Options{Workers: 1, Exec: fe.exec}); err == nil {
		t.Fatal("directory with a different spec accepted")
	}
	// Identical spec continues (shard-friendly idempotent start).
	sum, err := Start(context.Background(), dir, fakeSpec, Options{Workers: 1, Exec: fe.exec})
	if err != nil || sum.Reused != 4 {
		t.Fatalf("idempotent restart: sum=%+v err=%v", sum, err)
	}
}

func TestShardedCampaignMergesIdentical(t *testing.T) {
	ref := t.TempDir()
	fe := &fakeExec{}
	if _, err := Start(context.Background(), ref, fakeSpec, Options{Workers: 1, Exec: fe.exec}); err != nil {
		t.Fatal(err)
	}
	wantResults, wantPayload := mustOutputs(t, ref)

	dir := t.TempDir()
	var lastSum *Summary
	for shard := 0; shard < 2; shard++ {
		fs := &fakeExec{}
		sum, err := Start(context.Background(), dir, fakeSpec, Options{
			Workers: 1, Exec: fs.exec, Shard: Shard{Index: shard, Count: 2},
		})
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if sum.Total != 2 || sum.Ran != 2 {
			t.Fatalf("shard %d ran %d of %d units, want 2 of 2", shard, sum.Ran, sum.Total)
		}
		lastSum = sum
	}
	if !lastSum.Merged {
		t.Fatal("final shard did not merge")
	}
	gotResults, gotPayload := mustOutputs(t, dir)
	if gotResults != wantResults {
		t.Errorf("sharded results.txt differs from unsharded:\n%s\nwant:\n%s", gotResults, wantResults)
	}
	if gotPayload != wantPayload {
		t.Errorf("sharded campaign.json differs from unsharded:\n%s\nwant:\n%s", gotPayload, wantPayload)
	}
}

// TestShardedAxisSplitCampaignMergesIdentical is the sharded-merge
// equivalence guarantee at the finer unit grain: a figure split into
// per-(scenario, algorithm) units merges to byte-identical outputs across
// any shard count, including shard counts that cut through the middle of
// one figure's cells.
func TestShardedAxisSplitCampaignMergesIdentical(t *testing.T) {
	spec := Spec{Experiments: []string{"faults", "fig1"}, Seeds: []int64{1, 2}}
	m, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Units) <= 10 {
		t.Fatalf("spec expanded to only %d units; axis splitting is not in effect", len(m.Units))
	}

	ref := t.TempDir()
	fe := &fakeExec{}
	if sum, err := Start(context.Background(), ref, spec, Options{Workers: 2, Exec: fe.exec}); err != nil || !sum.Merged {
		t.Fatalf("reference campaign: sum=%+v err=%v", sum, err)
	}
	wantResults, wantPayload := mustOutputs(t, ref)
	for _, u := range m.Units {
		if !strings.Contains(wantResults, u.ID()) {
			t.Fatalf("merged results missing unit %s", u.ID())
		}
	}

	const shards = 5 // does not divide 50 units evenly: shards own ragged slices of the faults grid
	dir := t.TempDir()
	var lastSum *Summary
	for shard := 0; shard < shards; shard++ {
		fs := &fakeExec{}
		sum, err := Start(context.Background(), dir, spec, Options{
			Workers: 2, Exec: fs.exec, Shard: Shard{Index: shard, Count: shards},
		})
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		lastSum = sum
	}
	if !lastSum.Merged {
		t.Fatal("final shard did not merge")
	}
	gotResults, gotPayload := mustOutputs(t, dir)
	if gotResults != wantResults {
		t.Errorf("axis-split sharded results.txt differs from unsharded")
	}
	if gotPayload != wantPayload {
		t.Errorf("axis-split sharded campaign.json differs from unsharded")
	}
}

func TestResumeWithoutManifestErrors(t *testing.T) {
	if _, err := Resume(context.Background(), t.TempDir(), Options{}); err == nil {
		t.Fatal("resume of an empty directory accepted")
	}
}

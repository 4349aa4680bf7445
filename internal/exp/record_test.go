package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/check"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
)

// fig1Records runs Fig1 with run-record export into a fresh temp dir and
// returns every produced file keyed by name.
func fig1Records(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	Fig1(Config{Seed: 1, Scale: 0.1, Workers: workers, OutDir: dir, Check: true})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestRecordsIdenticalAcrossWorkers pins the determinism contract: run
// records depend only on (experiment, scenario, algorithm, seed), never on
// how many runs execute concurrently around them.
func TestRecordsIdenticalAcrossWorkers(t *testing.T) {
	serial := fig1Records(t, 1)
	parallel := fig1Records(t, 8)
	if len(serial) == 0 {
		t.Fatal("no records produced")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("j=1 produced %d files, j=8 produced %d", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Errorf("j=8 run missing %s", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between j=1 and j=8", name)
		}
	}
}

// TestFig1GoldenRecord byte-compares the fig1 TCP-baseline record against
// the committed golden. A diff means either an intended schema/series change
// (regenerate the golden and bump obsv.SchemaVersion if line shapes moved)
// or an unintended change to the simulation trajectory or record encoding.
//
// Regenerate with:
//
//	go run ./cmd/mptcp-bench -exp fig1 -scale 0.1 -seed 1 -out internal/exp/testdata
//	(keep only the fig1_reno_tcp-1nic-1sub_seed1.* pair)
func TestFig1GoldenRecord(t *testing.T) {
	files := fig1Records(t, 4)
	for _, name := range []string{
		"fig1_reno_tcp-1nic-1sub_seed1.jsonl",
		"fig1_reno_tcp-1nic-1sub_seed1.csv",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("golden missing: %v", err)
		}
		got, ok := files[name]
		if !ok {
			t.Fatalf("fig1 did not produce %s (got %d files)", name, len(files))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from committed golden (see test comment to regenerate)", name)
		}
	}
}

// openDescriptors counts this process's open file descriptors.
func openDescriptors(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(entries)
}

// TestObserverAbortOnViolation runs an observed run through the one run
// sequence every figure closure uses and injects an invariant violation
// mid-run. FailFast turns it into a panic that skips Close; the deferred
// Abort must still leave a JSONL that parses through the last tick before
// the violation with no summary line, the CSV twin of the same rows, and no
// open descriptor.
func TestObserverAbortOnViolation(t *testing.T) {
	cfg := Config{Seed: 1, OutDir: t.TempDir(), Check: true}
	before := openDescriptors(t)
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		cfg.run(nil, world{
			res: &Result{ID: "abort"}, scenario: "twopath",
			sc: backend.Scenario{Topology: "twopath", Algorithm: "lia", EnergyModel: "none", Seed: cfg.Seed, Horizon: 5 * sim.Second},
			Stages: backend.Stages{
				Attach: func(w *backend.World, obs *obsv.Observer) {
					w.Observe(obs)
					obs.Summary("never_written", 1)
					w.Eng.At(1250*sim.Millisecond, func() {
						obs.Inv().Inject(check.Violation{T: w.Eng.Now(), Invariant: "injected", Detail: "test"})
					})
				},
				Summary: func(*backend.World, *obsv.Observer) { t.Error("the run reached its summary") },
			},
		})
	}()
	if panicked == nil {
		t.Fatal("the injected violation did not panic under FailFast")
	}
	if after := openDescriptors(t); after != before {
		t.Errorf("%d descriptors open after the aborted run, %d before", after, before)
	}

	base := filepath.Join(cfg.OutDir, "abort_lia_twopath_seed1")
	f, err := os.Open(base + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := obsv.ParseRecord(f)
	if err != nil {
		t.Fatalf("aborted record does not parse: %v", err)
	}
	if n := len(rec.Samples); n != 12 || rec.Samples[n-1].T != 1.2 {
		t.Errorf("aborted record has %d samples, want 12 ending at t=1.2", n)
	}
	if rec.Summary != nil {
		t.Errorf("aborted record has a summary line: %v", rec.Summary)
	}
	csv, err := os.ReadFile(base + ".csv")
	if err != nil {
		t.Fatalf("aborted run left no CSV twin: %v", err)
	}
	if rows := bytes.Count(csv, []byte("\n")); rows != 13 {
		t.Errorf("CSV twin has %d lines, want the header and 12 rows", rows)
	}
}

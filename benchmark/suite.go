package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// suiteResult is the file a full run writes and -compare reads.
type suiteResult struct {
	Meta      meta                      `json:"meta"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// workloadResult joins a workload's untraced and traced runs.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	SimDigest string                 `json:"sim_digest"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Untraced  runDetail              `json:"untraced"`
	Traced    runDetail              `json:"traced"`
}

// meta records where and when the numbers were taken, so that two result
// files can be told apart before they are compared.
type meta struct {
	Time       string  `json:"time"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"load_avg_1min"`
	// ScheduleFireNS is sim.schedule_fire_ns taken before the first
	// workload: a hardware calibration to read wall-clock numbers against.
	ScheduleFireNS float64 `json:"sim.schedule_fire_ns"`
	// Noisy is set when the 1-minute load average exceeded the number of
	// processors at the start: the timings are then not to be trusted.
	Noisy bool `json:"bench.noisy"`
}

func collectMeta(seed int64, seconds float64, smoke bool) meta {
	m := meta{
		Time: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds, Smoke: smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			m.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	m.Noisy = m.LoadAvg1 > float64(m.NProc)
	if r := testing.Benchmark(driveScheduleFire); r.N > 0 {
		m.ScheduleFireNS = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return m
}

// runSuite runs every workload — those of BENCHMARK.json and the extra ones
// the driver does not gate — untraced then traced, prints every metric by
// name with its unit and writes the result file. It
// returns the process's exit code: non-zero when an operation failed or the
// benchmark and BENCHMARK.json disagree about what is measured.
func runSuite(seed int64, seconds float64, smoke bool, outPath string) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(2, "%v (run from the repository root)", err)
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if outPath == "" {
		outPath = filepath.Join(outDir(), fmt.Sprintf("result-seed%d.json", seed))
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fatal(1, "%v", err)
	}

	res := suiteResult{Meta: collectMeta(seed, seconds, smoke), Workloads: map[string]workloadResult{}}
	m := res.Meta
	fmt.Printf("benchmark: seed %d, %g s per run, %s, %d cpus (GOMAXPROCS %d), %s, load %.2f, sim.schedule_fire_ns %.1f\n",
		seed, seconds, m.CPUModel, m.NProc, m.GOMAXPROCS, m.GoVersion, m.LoadAvg1, m.ScheduleFireNS)
	if m.Noisy {
		fmt.Fprintf(os.Stderr, "benchmark: warning: load average %.2f exceeds %d processors; timings are noisy (bench.noisy)\n", m.LoadAvg1, m.NProc)
	}

	bad := 0
	why := map[string]string{}
	for _, sw := range sp.Workloads {
		why[sw.Name] = sw.Why
		if _, ok := lookupWorkload(sw.Name); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json names workload %q, which the benchmark does not have\n", sw.Name)
			bad++
		}
	}
	for _, w := range workloads {
		if w.extra != "" {
			why[w.name] = w.extra + " (not in BENCHMARK.json: the driver does not gate it)"
		} else if why[w.name] == "" {
			fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json does not name workload %q\n", w.name)
			bad++
		}
		var wr workloadResult
		var runs [2]runResult
		var dets [2]runDetail
		for trace := 0; trace < 2; trace++ {
			if smoke {
				runs[trace], dets[trace] = measure(w, smokeOptions(seed, trace == 1))
			} else if runs[trace], dets[trace], err = runChild(w.name, seed, seconds, trace); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d: %v\n", w.name, trace, err)
				bad++
			}
		}
		wr.EndToEnd, wr.PerLayer = runs[0].Metrics, runs[1].Metrics
		wr.Untraced, wr.Traced = dets[0], dets[1]
		wr.SimDigest = dets[0].SimDigest
		wr.Attempted = runs[0].Attempted + runs[1].Attempted
		wr.Failed = runs[0].Failed + runs[1].Failed
		wr.Correct = runs[0].Correct && runs[1].Correct
		if dets[0].SimDigest != dets[1].SimDigest {
			wr.Correct = false
			wr.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: sim_digest differs between the untraced and the traced run\n", w.name)
		}
		res.Workloads[w.name] = wr
		printWorkload(w.name, why[w.name], wr)
		if !wr.Correct {
			bad++
		}
		bad += checkNames(sp, w.name, wr)
	}

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		fatal(1, "%v", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("wrote %s\n", outPath)
	if bad > 0 {
		return 1
	}
	return 0
}

// smokeOptions is a run at minimum size: no warm repetition, no probes, one
// repetition, every driver once.
func smokeOptions(seed int64, trace bool) runOptions {
	return runOptions{seed: seed, trace: trace, start: time.Now(), size: sizeSmoke, inputs: 1, minPasses: 1, benchtime: "1x"}
}

// runChild runs one workload in a process of its own, the way the driver
// does, so that peak_rss_mb and the collector's state are per workload.
func runChild(name string, seed int64, seconds float64, trace int) (runResult, runDetail, error) {
	var res runResult
	var det runDetail
	self, err := os.Executable()
	if err != nil {
		return res, det, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, det, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return res, det, fmt.Errorf("child printed %d lines", len(lines))
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, det, fmt.Errorf("result line: %w", err)
	}
	detail, ok := bytes.CutPrefix(lines[len(lines)-2], []byte("detail "))
	if !ok {
		return res, det, fmt.Errorf("no detail line before the result line")
	}
	if err := json.Unmarshal(detail, &det); err != nil {
		return res, det, fmt.Errorf("detail line: %w", err)
	}
	return res, det, nil
}

func printWorkload(name, why string, wr workloadResult) {
	fmt.Printf("\n== %s ==\n%s\n", name, why)
	fmt.Printf("  sim_digest %s\n", wr.SimDigest)
	u := wr.Untraced
	if u.Reps == 0 { // the untraced child did not finish
		fmt.Println("  no timed repetitions")
		return
	}
	fmt.Printf("  %d timed repetitions of %d inputs, cpu %.3f–%.3f s, wall %.3f–%.3f s, rep_spread %.3f, work counted in %s, set-up samples %.3f s\n",
		u.Reps, u.Inputs, slices.Min(u.RepCPUs), slices.Max(u.RepCPUs), slices.Min(u.RepWalls), slices.Max(u.RepWalls), u.RepSpread, u.WorkUnit, u.SetupSamples)
	printMetrics := func(ms map[string]metricValue) {
		for _, k := range sortedKeys(ms) {
			fmt.Printf("  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	printMetrics(wr.EndToEnd)
	fmt.Printf("  %-34s %14.6g ratio (%d of %d operations failed)\n", "fail_share",
		ratio(float64(wr.Failed), float64(wr.Attempted)), wr.Failed, wr.Attempted)
	printMetrics(wr.PerLayer)
	for _, f := range wr.Traced.TopFuncs {
		fmt.Printf("  top: %5.1f%% %s\n", 100*f.Share, f.Func)
	}
	for _, e := range append(wr.Untraced.Errors, wr.Traced.Errors...) {
		fmt.Println("  error:", e)
	}
}

// checkNames reports every metric BENCHMARK.json names that the run did not
// print, and every metric the run printed that BENCHMARK.json does not name.
func checkNames(sp *spec, workload string, wr workloadResult) int {
	var want []string
	for _, m := range sp.EndToEnd {
		want = append(want, m.Name)
	}
	for _, m := range sp.PerLayer {
		want = append(want, m.Name)
	}
	got := append(sortedKeys(wr.EndToEnd), sortedKeys(wr.PerLayer)...)
	missing, extra := minus(want, got), minus(got, want)
	for _, n := range missing {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not report %s\n", workload, n)
	}
	for _, n := range extra {
		fmt.Fprintf(os.Stderr, "benchmark: %s reported %s, which BENCHMARK.json does not name\n", workload, n)
	}
	return len(missing) + len(extra)
}

// minus returns the names in a that are not in b, sorted.
func minus(a, b []string) []string {
	var out []string
	for _, n := range a {
		if !slices.Contains(b, n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

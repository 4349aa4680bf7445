package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runOptions describes one run of one workload: what the driver passes
// (seed, seconds, trace) plus what separates a real run from the tier-1
// smoke test.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	// start is when the process began; seconds count from it.
	start time.Time
	// size is sizeFull, or sizeSmoke for the tier-1 test.
	size sizeClass
	// warm runs the set-up repetition; probes is how many fresh processes
	// repeat it, one after each pass, so that setup_s is a median of samples
	// spread over the whole run (untraced runs only).
	warm   bool
	probes int
	// inputs is how many inputs the run's batch holds, each with its own
	// derived seed; minPasses is the least number of times the batch is
	// executed.
	inputs    int
	minPasses int
	// benchtime is how long each layer driver measures; "" skips them.
	benchtime string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints: the driver's contract.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a run prints besides its metrics, on the "detail" line.
type runDetail struct {
	Workload string `json:"workload"`
	// WorkUnit is what work_per_sec counts on this workload.
	WorkUnit  string `json:"work_unit"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	SimDigest string `json:"sim_digest"`
	// Inputs is the size of the run's batch and Reps counts the timed
	// repetitions behind cpu_s: repetition n executed input n mod Inputs.
	// The Rep slices hold each one's processor time, wall-clock time, event
	// count and peak RSS, and BestCPUs each input's fastest execution, whose
	// sum is cpu_s. RepSpread is the median over the inputs of (median −
	// fastest) ÷ fastest of the input's executions: how far a typical
	// execution was from the best one, a within-run estimate of the host's
	// noise.
	Inputs    int       `json:"inputs"`
	BestCPUs  []float64 `json:"best_cpu_s"`
	RepCPUs   []float64 `json:"rep_cpu_s"`
	Reps      int       `json:"reps"`
	RepSpread float64   `json:"rep_spread"`
	RepWalls  []float64 `json:"rep_wall_s"`
	RepEvents []float64 `json:"rep_events"`
	RepRSS    []float64 `json:"rep_peak_rss_mb"`
	// SetupSamples are the set-up times setup_s is the median of.
	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	// TopFuncs are the leaf functions with the most self time in the
	// traced pass, as shares of the sampled time.
	TopFuncs []funcShare `json:"top_funcs,omitempty"`
	Errors   []string    `json:"errors,omitempty"`
}

type funcShare struct {
	Func  string  `json:"func"`
	Share float64 `json:"share"`
}

// repSeed derives the seed of input i of the run's batch. Every input gets
// its own seed, so that a run samples several inputs and its result depends
// less on which seed the driver passed; 97 leaves room for the sub-seeds a
// repetition adds (seed+1, seed+2 …).
func repSeed(seed int64, i int) int64 {
	return seed*1_000_003 + 97*int64(i)
}

// warmSeed is the input of every set-up repetition. It does not follow
// --seed: setup_s is to measure the process getting ready, and a warm input
// redrawn per run would make it measure the draw (the three spot checks of
// the warm sweep cost 0.3–0.6 s depending on which topologies they hit).
const warmSeed = 1

// repSample is one repetition as measured from outside.
type repSample struct {
	out outcome
	err error
	// cpu is the processor time the process used during the repetition and
	// wall the wall-clock time it took, in seconds. The metrics are made of
	// cpu: on the shared reference host the hypervisor takes the processor
	// away for a tenth to nine tenths of the time, which the wall clock
	// counts and the process's processor time does not.
	cpu, wall float64
	rssMB     float64 // peak RSS reached during the repetition
	mallocs   uint64
	allocMB   float64
	gcs       uint32
	pauseMS   float64
}

func timeRep(w workload, env *repEnv, seed int64, sz sizeClass) repSample {
	// Every repetition starts from a collected heap whose free pages have
	// gone back to the system, and with the kernel's peak-RSS mark reset:
	// its time and its peak RSS then do not depend on what the previous
	// repetition left behind, which is also how a user meets the program —
	// one figure per process.
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t, c := time.Now(), cpuSeconds()
	out, err := w.run(env, seed, sz)
	cpu, wall := cpuSeconds()-c, time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	return repSample{
		out: out, err: err, cpu: cpu, wall: wall, rssMB: peakRSSMB(),
		mallocs: after.Mallocs - before.Mallocs,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		gcs:     after.NumGC - before.NumGC,
		pauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// tally counts operations for fail_share: failed ÷ attempted.
type tally struct {
	attempted, failed int
	errors            []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.fail(err.Error())
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errors) < 8 {
		t.errors = append(t.errors, msg)
	}
}

func (t *tally) rep(s repSample) {
	t.op(s.err)
	t.attempted += s.out.ops
	t.failed += s.out.failedOps
	if s.out.failedOps > 0 {
		t.errors = append(t.errors, fmt.Sprintf("%d operations of the repetition failed", s.out.failedOps))
	}
}

// measure runs one workload as the driver asks and returns the result line
// and the detail line. It never returns early on a failed operation: a
// failure is counted and the run goes on, so fail_share has a denominator.
//
// opt.seconds is the whole run, set-up sampling included: the process ends
// that long after it began, give or take a repetition.
func measure(w workload, opt runOptions) (runResult, runDetail) {
	det := runDetail{Workload: w.name, WorkUnit: w.unit, Seed: opt.seed, Trace: opt.trace, Inputs: opt.inputs}
	var tl tally
	env := &repEnv{outDir: outDir(), check: true, records: true}
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		tl.op(err)
	}
	end := opt.start.Add(time.Duration(opt.seconds * float64(time.Second)))

	// Set-up: everything before the first timed repetition. The smoke test
	// skips the warm repetition and the probes.
	var warm repSample
	if opt.warm {
		warm = timeRep(w, env, warmSeed, sizeWarm)
		tl.rep(warm)
	}
	ownWall := time.Since(opt.start).Seconds()
	det.SetupSamples = []float64{cpuSeconds()}
	probesLeft := opt.probes
	probe := func() {
		if probesLeft == 0 {
			return
		}
		probesLeft--
		sec, digest, err := setupProbe(w.name)
		tl.op(err)
		if err != nil {
			return
		}
		det.SetupSamples = append(det.SetupSamples, sec)
		if digest != warm.out.digest {
			tl.fail(fmt.Sprintf("set-up digest differs between processes: %s vs %s", digest, warm.out.digest))
		}
	}

	metrics := map[string]metricValue{}
	if opt.trace {
		tracedPass(w, env, opt, &tl, &det, metrics)
	} else {
		// The repetitions may use what the run has left once the probes still
		// to come are paid for, each at about this process's own set-up time.
		left := func() float64 { return time.Until(end).Seconds() - float64(probesLeft)*ownWall }
		reps := timedPasses(w, env, opt, left, probe, &tl)
		for probesLeft > 0 {
			probe()
		}
		summarize(reps, &det)
		cpu, work := batchCPU(reps, opt.inputs)
		metrics["setup_s"] = metricValue{percentile(det.SetupSamples, 50), "s"}
		metrics["cpu_s"] = metricValue{cpu, "s"}
		metrics["work_per_sec"] = metricValue{ratio(work, cpu), "1/s"}
		// The mean, not the median: whether the collector finishes a cycle
		// before or after a repetition's peak moves that peak by a tenth, so
		// the peaks have two modes and their median jumps between them.
		peaks := rssPeaks(reps)
		metrics["peak_rss_mb"] = metricValue{sum(peaks) / float64(len(peaks)), "MB"}
	}
	det.Errors = tl.errors
	return runResult{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, det
}

// timedPasses executes the run's batch of opt.inputs inputs pass after pass:
// repetition n executes input n mod inputs. It goes on while left() seconds
// suffice for the next input's fastest execution so far, and at least for
// opt.minPasses passes; afterPass, when set, runs after each complete pass.
// Executing an input again must reproduce its digest.
//
// The passes are what makes cpu_s steady on a shared host. The host's
// interference only ever adds time, in bursts of seconds to tens of seconds,
// so an input's fastest execution out of several spread over the run is
// close to what the program costs on the quiet machine, where the median of
// the same executions follows the bursts.
func timedPasses(w workload, env *repEnv, opt runOptions, left func() float64, afterPass func(), tl *tally) []repSample {
	var reps []repSample
	k := opt.inputs
	best := make([]float64, k) // wall clock: what the next execution will take of left()
	for n := 0; ; n++ {
		i := n % k
		if n >= k*opt.minPasses && left() < best[i] {
			break
		}
		s := timeRep(w, env, repSeed(opt.seed, i), opt.size)
		tl.rep(s)
		if n >= k && s.err == nil && reps[i].err == nil && s.out.digest != reps[i].out.digest {
			tl.fail(fmt.Sprintf("sim_digest differs between repetitions of seed %d", repSeed(opt.seed, i)))
		}
		if s.err == nil && (best[i] == 0 || s.wall < best[i]) {
			best[i] = s.wall
		}
		reps = append(reps, s)
		if i == k-1 && afterPass != nil {
			afterPass()
		}
	}
	return reps
}

// bestCPUs returns the processor time of the fastest execution of each of
// the k inputs among reps, where repetition n executed input n mod k, and
// that input's work.
func bestCPUs(reps []repSample, k int) (best, work []float64) {
	best, work = make([]float64, k), make([]float64, k)
	for n, r := range reps {
		if i := n % k; r.err == nil && (best[i] == 0 || r.cpu < best[i]) {
			best[i], work[i] = r.cpu, r.out.work
		}
	}
	return best, work
}

// batchCPU is the processor time of one pass over the batch and the work it
// does, each input counted at its fastest execution.
func batchCPU(reps []repSample, k int) (cpu, work float64) {
	best, w := bestCPUs(reps, k)
	return sum(best), sum(w)
}

func summarize(reps []repSample, det *runDetail) {
	det.Reps = len(reps)
	det.SimDigest = reps[0].out.digest
	det.BestCPUs, _ = bestCPUs(reps, det.Inputs)
	det.RepSpread = repSpread(reps, det.Inputs)
	det.RepWalls = walls(reps)
	for _, r := range reps {
		det.RepCPUs = append(det.RepCPUs, r.cpu)
	}
	det.RepRSS = rssPeaks(reps)
	for _, r := range reps {
		det.RepEvents = append(det.RepEvents, float64(r.out.events))
	}
}

// repSpread is the median over the k inputs of (median − fastest) ÷ fastest
// of the processor time of the input's executions.
func repSpread(reps []repSample, k int) float64 {
	var spreads []float64
	for i := 0; i < k; i++ {
		var ws []float64
		for n := i; n < len(reps); n += k {
			if reps[n].err == nil {
				ws = append(ws, reps[n].cpu)
			}
		}
		if len(ws) >= 2 {
			spreads = append(spreads, (percentile(ws, 50)-slices.Min(ws))/slices.Min(ws))
		}
	}
	if len(spreads) == 0 {
		return 0
	}
	return percentile(spreads, 50)
}

// tracedPass produces every per-layer metric: counters from untraced passes
// over the first three tenths of the run, then the same repetitions again
// under the CPU profiler and the span recorder, then the workload's priced
// variants, then the layer drivers.
func tracedPass(w workload, env *repEnv, opt runOptions, tl *tally, det *runDetail, metrics map[string]metricValue) {
	k := opt.inputs
	until := time.Now().Add(time.Duration(0.3 * opt.seconds * float64(time.Second)))
	plain := timedPasses(w, env, opt, func() float64 { return time.Until(until).Seconds() }, nil, tl)
	summarize(plain, det)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// The same inputs, traced.
	env.tr = newTracer(w.name)
	var prof bytes.Buffer
	profErr := pprof.StartCPUProfile(&prof)
	traced := make([]repSample, len(plain))
	for n := range plain {
		end := env.tr.span("repetition")
		traced[n] = timeRep(w, env, repSeed(opt.seed, n%k), opt.size)
		end()
		tl.rep(traced[n])
		if traced[n].err == nil && plain[n].err == nil && traced[n].out.digest != plain[n].out.digest {
			tl.fail(fmt.Sprintf("sim_digest differs between repetitions of seed %d", repSeed(opt.seed, n%k)))
		}
	}
	var led ledger
	if profErr == nil {
		pprof.StopCPUProfile()
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			profErr = err
		} else {
			led = attribute(p)
		}
	}
	// A profile that cannot start (the process is already being profiled,
	// as under go test -cpuprofile) leaves the ledger empty; a real run
	// counts it as a failed operation.
	tl.op(profErr)
	tl.op(env.tr.write(filepath.Join(env.outDir, "trace-"+w.name+".json")))
	tr := env.tr
	env.tr = nil

	set := func(name string, v float64, unit string) { metrics[name] = metricValue{v, unit} }
	first := plain[0]
	events := float64(first.out.events)
	tracedEvents := 0.0
	for _, r := range traced {
		tracedEvents += float64(r.out.events)
	}

	// (a) the ledger.
	for _, l := range busyLayers {
		set(l+".busy_s", led.busy[l], "s")
	}
	for _, l := range rtLayers {
		set(l+".rt_busy_s", led.rt[l], "s")
	}
	set("runtime.bg_gc_busy_s", led.bgGC, "s")
	set("bench.profile_s", led.total, "s")
	for _, l := range eventLayers {
		set(l+".ns_per_event", ratio((led.busy[l]+led.rt[l])*1e9, tracedEvents), "ns")
	}
	plainCPU, _ := batchCPU(plain, k)
	tracedCPU, _ := batchCPU(traced, k)
	set("bench.trace_overhead", ratio(tracedCPU, plainCPU)-1, "ratio")
	set("bench.spans", float64(len(tr.spans)), "count")
	det.TopFuncs = topFuncs(led, 8)

	// (b) counters of the untraced repetitions; the exact ones come from
	// the first, whose input depends on --seed alone.
	set("sim.events", events, "count")
	plainSeconds := 0.0
	for _, r := range plain {
		plainSeconds += r.cpu
	}
	set("sim.events_per_sec", ratio(sumEvents(plain), plainSeconds), "1/s")
	set("sim.cpu_ns_per_event", ratio(plainSeconds*1e9, sumEvents(plain)), "ns")
	set("runtime.mallocs_per_kevent", ratio(float64(first.mallocs)*1e3, events), "count")
	set("runtime.alloc_mb", first.allocMB, "MB")
	set("runtime.gc_cycles", float64(first.gcs), "count")
	set("runtime.gc_pause_ms", first.pauseMS, "ms")
	set("runtime.heap_sys_mb", float64(ms.HeapSys)/1e6, "MB")
	offered := first.out.counters["flows.offered"]
	set("flows.events_per_flow", ratio(events, offered), "count")
	set("flows.mallocs_per_flow", ratio(float64(first.mallocs), offered), "count")
	set("flows.us_per_flow", ratio(first.cpu*1e6, offered), "us")
	for name, unit := range counterUnits {
		set(name, first.out.counters[name], unit)
	}
	// The accuracy metric is a maximum over every point the run checked.
	maxDelta := 0.0
	for _, r := range append(plain, traced...) {
		maxDelta = math.Max(maxDelta, r.out.counters["backend.conformance_max_delta"])
	}
	set("backend.conformance_max_delta", maxDelta, "share")
	set("bench.reps", float64(len(plain)), "count")
	set("bench.rep_spread", det.RepSpread, "ratio")
	buildS, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64)
	set("bench.build_s", buildS, "s")

	// Priced variants: the first repetition's input with layers switched
	// off. Each variant runs twice and counts its faster execution, as does
	// the full input (untraced and traced): these are differences of single
	// repetitions, which host noise would otherwise swamp.
	for name, unit := range pricedUnits {
		set(name, 0, unit)
	}
	if w.priced != nil {
		best := func(run func() (float64, error)) float64 {
			wall := math.Inf(1)
			for i := 0; i < 2; i++ {
				t, err := run()
				tl.op(err)
				wall = math.Min(wall, t)
			}
			return wall
		}
		full := math.Inf(1)
		for n := 0; n < len(plain); n += k {
			full = min(full, plain[n].cpu, traced[n].cpu)
		}
		for name, v := range w.priced(env, repSeed(opt.seed, 0), opt.size, full, best) {
			set(name, v, pricedUnits[name])
		}
	}

	// (c) the layer drivers; the smoke test runs them with one workload only.
	if opt.benchtime == "" {
		return
	}
	vals, failed := runDrivers(opt.benchtime)
	for _, name := range failed {
		tl.fail("driver " + name + " failed")
	}
	tl.attempted += len(drivers())
	for name, v := range vals {
		metrics[name] = v
	}
}

// pricedUnits are the metrics a workload's priced variants yield.
var pricedUnits = map[string]string{
	"check.overhead_share": "ratio",
	"obsv.overhead_share":  "ratio",
	"backend.fluid_s":      "s",
	"backend.packet_s":     "s",
}

// counterUnits are the counters a repetition may yield, with their units;
// a workload that does not yield one reports 0.
var counterUnits = map[string]string{
	"sim.pending_at_end": "count",
	"flows.offered":      "count",
	"flows.completed":    "count",
	"flows.shed":         "count",
	"flows.cut":          "count",
	"flows.peak_live":    "count",
	"exp.fig6_wall_s":    "s",
	"exp.fig9_wall_s":    "s",
	"backend.points":     "count",
	"backend.checked":    "count",
	"obsv.record_mb":     "MB",
	"obsv.record_files":  "count",
}

func topFuncs(l ledger, n int) []funcShare {
	var out []funcShare
	for fn, sec := range l.topFuncs {
		out = append(out, funcShare{fn, sec / l.total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// setupProbe repeats the set-up in a fresh process and returns the processor
// time that process used from its start to the end of its warm repetition,
// and the repetition's digest.
func setupProbe(workload string) (seconds float64, digest string, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.Command(self, "-probe", "-workload", workload)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, "", fmt.Errorf("set-up probe: %w", err)
	}
	var p probeResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &p); err != nil {
		return 0, "", fmt.Errorf("set-up probe: %w", err)
	}
	if p.Error != "" {
		return 0, "", fmt.Errorf("set-up probe: %s", p.Error)
	}
	return p.Seconds, p.Digest, nil
}

type probeResult struct {
	Seconds float64 `json:"seconds"`
	Digest  string  `json:"digest"`
	Error   string  `json:"error,omitempty"`
}

// runProbe is the fresh process's side of setupProbe.
func runProbe(w workload) probeResult {
	env := &repEnv{outDir: outDir(), check: true, records: true}
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return probeResult{Error: err.Error()}
	}
	out, err := w.run(env, warmSeed, sizeWarm)
	if err != nil {
		return probeResult{Error: err.Error()}
	}
	return probeResult{Seconds: cpuSeconds(), Digest: out.digest}
}

// cpuSeconds is the processor time, user and system, this process has used
// since it began.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS resets the kernel's high-water mark of this process's
// resident set (VmHWM) to its current size. Where /proc does not allow it
// the mark stays, and every repetition reports the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the high-water mark of the resident set since the last
// reset: VmHWM of /proc/self/status, or ru_maxrss where that is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func rssPeaks(reps []repSample) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.rssMB
	}
	return out
}

func walls(reps []repSample) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}

func sumWork(reps []repSample) (s float64) {
	for _, r := range reps {
		s += r.out.work
	}
	return s
}

func sumEvents(reps []repSample) (s float64) {
	for _, r := range reps {
		s += float64(r.out.events)
	}
	return s
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a ÷ b, or 0 when the workload has no b (no flows, no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

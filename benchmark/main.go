// Command benchmark is the repository's benchmark: six named workloads —
// four of them in BENCHMARK.json, which the driver gates — four end-to-end
// metrics bounded there, and a per-layer ledger measured from outside the
// program. README.md in this directory defines every workload and metric.
//
// The driver's form runs one workload in one process and prints one JSON
// result as its last line:
//
//	go run ./benchmark --workload churn-mice --seed 1 --seconds 30 --trace 0
//
// Without --workload it runs every workload that way, untraced then traced,
// each in a child process, prints every metric by name with its unit and
// writes benchmark/out/result-seed<N>.json:
//
//	go run ./benchmark -seed 1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// processStart is as close to the start of the process as the program can
// see; a run's --seconds count from it.
var processStart = time.Now()

const (
	// driverBenchtime is how long each layer driver measures in a real run.
	driverBenchtime = "30ms"
	// setupProbes is how many fresh processes repeat the set-up of an
	// untraced run, one after each pass; setup_s is the median over them
	// and the run itself.
	setupProbes = 6
)

func main() {
	// One core, one worker: the numbers must measure the program, not the
	// scheduler, and the reference box has two cores.
	runtime.GOMAXPROCS(1)

	var (
		name    = flag.String("workload", "", "run this one workload and print one JSON result (the driver's form)")
		seed    = flag.Int64("seed", 1, "workload seed; inputs are generated from it alone")
		seconds = flag.Float64("seconds", 0, "how long one run takes, set-up included (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
		probe   = flag.Bool("probe", false, "internal: repeat the set-up of -workload and report how long it took")
		compare = flag.Bool("compare", false, "compare two result files (arguments: a.json b.json) against the bounds of BENCHMARK.json")
		smoke   = flag.Bool("smoke", false, "run every workload and driver once at minimum size, in this process")
		out     = flag.String("out", "", "where the full run writes its result (default benchmark/out/result-seed<N>.json)")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		w, ok := lookupWorkload(*name)
		if !ok {
			fatal(2, "unknown workload %q", *name)
		}
		if *probe {
			printJSON(runProbe(w))
			return
		}
		if *seconds <= 0 {
			fatal(2, "-seconds must be positive")
		}
		opt := runOptions{
			seed: *seed, seconds: *seconds, trace: *trace != 0, start: processStart,
			size: sizeFull, warm: true, inputs: w.inputs, minPasses: 2, benchtime: driverBenchtime,
		}
		if !opt.trace {
			opt.probes = setupProbes
		}
		res, det := measure(w, opt)
		// A failed operation is reported in the result line (correct,
		// failed), not by the exit code: the run itself completed.
		printRun(res, det)
	default:
		os.Exit(runSuite(*seed, *seconds, *smoke, *out))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// printRun prints a run for a reader and for the driver: every metric by
// name with its unit, the detail line, and last the result line.
func printRun(res runResult, det runDetail) {
	fmt.Printf("workload %s seed %d trace %v: %d repetitions of %d inputs, cpu %.3f–%.3f s, wall %.3f–%.3f s, work counted in %s, sim_digest %s\n",
		det.Workload, det.Seed, det.Trace, det.Reps, det.Inputs, slices.Min(det.RepCPUs), slices.Max(det.RepCPUs),
		slices.Min(det.RepWalls), slices.Max(det.RepWalls), det.WorkUnit, det.SimDigest)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %14.6g ratio (%d of %d operations failed)\n", "fail_share",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, e := range det.Errors {
		fmt.Println("  error:", e)
	}
	fmt.Print("detail ")
	printJSON(det)
	printJSON(res)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(data))
}

// repoRoot is the directory holding BENCHMARK.json: the working directory
// for the driver and go run, its parent for go test.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// outDir is where everything the benchmark writes goes; benchmark/.gitignore
// keeps it out of the tree.
func outDir() string {
	return filepath.Join(repoRoot(), "benchmark", "out")
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

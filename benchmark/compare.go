package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactCounters repeat exactly for one commit and one seed; -compare prints
// whether they did, because a simulator-only speed-up must not move them.
var exactCounters = []string{"sim.events", "flows.offered", "flows.completed", "flows.shed", "flows.cut",
	"backend.points", "backend.checked", "backend.conformance_max_delta"}

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end metric of one workload: b against a, by the
// metric's bound. worse is how much worse b's value is, as a share of a's.
// Within the bound the verdict is unchanged — unless the workload's own
// repetitions spread wider than the bound on either side, which leaves a
// timing unresolved rather than unchanged.
func verdict(a, b, bound float64, higherIsBetter bool, spread float64, timing bool) (v string, worse float64) {
	if a == 0 {
		return "unresolved", 0
	}
	worse = (b - a) / a
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	case timing && spread > bound:
		return "unresolved", worse
	default:
		return "unchanged", worse
	}
}

// runCompare prints a verdict per end-to-end metric and workload for result
// file b against result file a, and returns the exit code: 1 on any
// regression or any increase of fail_share, else 0.
func runCompare(pathA, pathB string) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(2, "%v (run from the repository root)", err)
	}
	a, err := loadSuite(pathA)
	if err != nil {
		fatal(2, "%v", err)
	}
	b, err := loadSuite(pathB)
	if err != nil {
		fatal(2, "%v", err)
	}
	for _, r := range []*suiteResult{a, b} {
		if r.Meta.Noisy {
			fmt.Println("warning: a result was taken on a loaded machine (bench.noisy)")
		}
	}
	if a.Meta.Seed != b.Meta.Seed {
		fmt.Printf("note: seeds differ (%d vs %d): sim_digest and the exact counters are expected to differ\n", a.Meta.Seed, b.Meta.Seed)
	}

	bad := 0
	fmt.Printf("%-16s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, sw := range workloads {
		wa, okA := a.Workloads[sw.name]
		wb, okB := b.Workloads[sw.name]
		if !okA || !okB {
			fmt.Printf("%-16s missing from a result file\n", sw.name)
			bad++
			continue
		}
		spread := max(wa.Untraced.RepSpread, wb.Untraced.RepSpread)
		for _, m := range sp.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			timing := m.Unit == "s" || m.Unit == "1/s"
			v, worse := verdict(va, vb, m.Bound, m.Better == "higher", spread, timing)
			fmt.Printf("%-16s %-14s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", sw.name, m.Name, va, vb, 100*worse, 100*m.Bound, v)
			if v == "regressed" {
				bad++
			}
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		v := "unchanged"
		if fb > fa {
			v = "regressed"
			bad++
		}
		fmt.Printf("%-16s %-14s %14.6g %14.6g %8s %7s  %s\n", sw.name, "fail_share", fa, fb, "", "any", v)

		same := "identical"
		if wa.SimDigest != wb.SimDigest {
			same = "differs"
		}
		for _, c := range exactCounters {
			if wa.PerLayer[c].Value != wb.PerLayer[c].Value {
				same += ", " + c + " differs"
			}
		}
		fmt.Printf("%-16s sim_digest and exact counters: %s\n", sw.name, same)
	}
	if bad > 0 {
		fmt.Printf("%d regressions\n", bad)
		return 1
	}
	fmt.Println("no regression")
	return 0
}

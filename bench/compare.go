package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type savedReport struct {
	Workload string            `json:"workload"`
	Metrics  map[string]metric `json:"metrics"`
	Correct  bool              `json:"correct"`
}

func loadReport(path string) (*savedReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r savedReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per end-to-end metric of the reports' workload,
// both values, the ratio B/A with its base, the bound, and a verdict:
// ok, worse (B is worse than A by more than the bound) or unresolved (a
// value is missing). It returns 1 if any metric is worse.
func compareReports(pathA, pathB string) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(os.Stderr, "bench: reports are of different workloads: %s and %s\n", a.Workload, b.Workload)
		return 2
	}
	sort.Slice(spec.EndToEnd, func(i, j int) bool { return spec.EndToEnd[i].Name < spec.EndToEnd[j].Name })
	worse := 0
	fmt.Printf("workload %s: A=%s B=%s\n", a.Workload, pathA, pathB)
	fmt.Printf("%-20s %14s %14s %-22s %6s  %s\n", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		va, okA := a.Metrics[m.Name]
		vb, okB := b.Metrics[m.Name]
		if !okA || !okB || va.Value == 0 {
			fmt.Printf("%-20s %14s %14s %-22s %6.2f  unresolved\n", m.Name, "-", "-", "-", m.Bound)
			continue
		}
		ratio := vb.Value / va.Value
		change := ratio - 1 // positive: B is larger
		if m.Better == "higher" {
			change = -change
		}
		verdict := "ok"
		if change > m.Bound {
			verdict = "worse"
			worse++
		}
		fmt.Printf("%-20s %14.4f %14.4f %-22s %6.2f  %s\n", m.Name, va.Value, vb.Value,
			fmt.Sprintf("%.4f of %.4g %s", ratio, va.Value, m.Unit), m.Bound, verdict)
	}
	if !a.Correct || !b.Correct {
		fmt.Println("a report failed its correctness gates")
		return 1
	}
	if worse > 0 {
		return 1
	}
	return 0
}

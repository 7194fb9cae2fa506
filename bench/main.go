// Command bench is the repository's benchmark: one timed, seeded run of
// one workload against the system through its public functions, printing
// every metric by name with its unit and checking outputs for
// correctness. See README.md in this directory for the glossary.
//
//	bash bench/run.sh --workload embedded-fanout --seed 1 --seconds 26 --trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	code := 0
	func() {
		defer runCleanups() // also on a panic of this goroutine, which then re-panics
		code = realMain()
	}()
	os.Exit(code)
}

func realMain() int {
	var opt options
	var quick bool
	var traceFlag int
	var out string
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&opt.seconds, "seconds", 26, "seconds measured (two fifths closed loop, three fifths open loop)")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer replay, per-layer metrics")
	flag.BoolVar(&quick, "quick", false, "a 4 s run (same as -seconds 4)")
	flag.StringVar(&out, "out", "", "write the full report (metrics, environment, failures) to this file")
	flag.StringVar(&opt.datadir, "datadir", "", "parent of the temp -data dir (default .bench_build/tmp in the checkout)")
	flag.BoolVar(&opt.breakIt, "break-check", false, "test flag: a correctness gate expects one event (or match) too many, so the run must exit non-zero")
	flag.BoolVar(&compare, "compare", false, "compare two report files: -compare A.json B.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}
	def, ok := findWorkload(opt.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if quick {
		opt.seconds = 4
	}
	if opt.seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		return 2
	}
	opt.trace = traceFlag != 0

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	rep, err := runWorkload(def, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "FAILED CHECK:", f)
	}
	root, _ := repoRoot()
	if opt.trace {
		path := filepath.Join(root, "bench", "out", "trace-"+def.name+".jsonl")
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if out != "" {
		if err := writeReport(out, def, opt, rep, environment(root, opt)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": max(1, rep.attempted),
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.failures) != 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// environment is the run environment block the report carries.
func environment(root string, opt options) map[string]any {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	datadir := opt.datadir
	if datadir == "" {
		datadir = filepath.Join(root, ".bench_build")
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitOf(root),
		"kernel":     kernel,
		"datadir_fs": fsType(datadir),
	}
}

// commitOf reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", rest))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

// writeReport writes the full report; "claim" is last and null: the
// benchmark measures, it claims no gain.
func writeReport(path string, def workloadDef, opt options, rep *report, env map[string]any) error {
	type kv struct {
		Workload    string            `json:"workload"`
		Seed        int64             `json:"seed"`
		Seconds     int               `json:"seconds"`
		Trace       bool              `json:"trace"`
		PacedCalls  float64           `json:"paced_calls_per_s"`
		Environment map[string]any    `json:"environment"`
		Metrics     map[string]metric `json:"metrics"`
		Correct     bool              `json:"correct"`
		Attempted   int               `json:"attempted"`
		Failed      int               `json:"failed"`
		Failures    []string          `json:"failures"`
		Claim       any               `json:"claim"`
	}
	b, err := json.MarshalIndent(kv{
		Workload: def.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		PacedCalls: def.pacedCalls, Environment: env, Metrics: rep.metrics,
		Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Failures: append([]string{}, rep.failures...),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

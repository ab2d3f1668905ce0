// Command benchmark is the repository's measurement spine: four workloads,
// four end-to-end metrics, and a per-layer table from a traced pass.
//
//	go run ./benchmark --workload wide24 --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -seed 1 -out benchmark/out      # every workload, both passes
//	go run ./benchmark compare A.json B.json
//
// With --workload it runs one pass of one workload and prints, as the last
// line of standard output, the JSON object BENCHMARK.json describes. Without
// it, it runs both passes of every workload, prints every metric by name
// with its unit, writes <out>/result.json for compare, and exits non-zero if
// any operation failed a check.
//
// Each pass generates its inputs from the seed, then runs the program under
// test in a fresh child process of this binary that sees only the generated
// files, so that the child's peak memory is the workload's own. See
// README.md for the catalogue of metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a process as the program under test: realMain runs the
// child side when it is set, and so does the smoke test's TestMain, since
// there the binary is the test binary.
const childEnv = "RAXBENCH_CHILD"

// setupReps is how often set-up is repeated in one run; setup_s is the
// median, so that one slow disk write does not read as a regression.
const setupReps = 5

type options struct {
	workload string
	scale    string
	out      string
	dir      string
	seed     int64
	seconds  float64
	trace    int
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one pass of this workload and end with the driver's JSON line (default: both passes of all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long a pass measures; the traced pass repeats its operation for half of it")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "bench", "input sizes: bench or smoke")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for inputs, traces and result.json")
	fs.StringVar(&o.dir, "dir", "", "internal: the child's working directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case os.Getenv(childEnv) != "":
		err = childMain(o)
	case o.workload != "":
		err = driverRun(o, stdout)
	default:
		err = runAll(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// stat is one reported value; where it is a median, the samples behind it.
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// passResult is the outcome of one pass of one workload.
type passResult struct {
	Attempted int
	Failed    int
	Failures  []string
	Metrics   map[string]stat
	SelfS     map[string]float64
	Findings  []string
}

// runPass generates the inputs, runs the child, checks every operation it
// reports and assembles the pass's metrics.
func runPass(o options, w workload) (*passResult, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var ins []input
	setups := make([]float64, setupReps)
	for rep := range setups {
		t0 := time.Now()
		var err error
		if ins, err = w.setup(o.seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[rep] = time.Since(t0).Seconds()
	}

	res, rssMB, err := runChild(o, w, dir)
	if err != nil {
		return nil, err
	}
	pr := tally(w, ins, res)
	if o.trace != 0 {
		// The untraced repetitions of a traced pass are the base of its
		// ratios, not end-to-end samples.
		pr.Metrics = map[string]stat{}
		for _, m := range perLayer {
			pr.Metrics[m.name] = stat{Value: res.Layers[m.name], Unit: m.unit}
		}
		if err := os.Rename(tracePath(dir), filepath.Join(o.out, "trace-"+w.name+".json")); err != nil && pr.Failed == 0 {
			return nil, err
		}
		return pr, nil
	}
	if pr.Metrics["wall_s"].N == 0 {
		return nil, fmt.Errorf("no operation of %s passed its checks: %v", w.name, pr.Failures)
	}
	pr.Metrics["peak_rss_mb"] = stat{Value: rssMB, Unit: "MB"}
	pr.Metrics["setup_s"] = summarise(setups, "s")
	return pr, nil
}

// tally checks every operation the child reported and counts the failures.
// Only a timed operation that passed its checks is a sample of wall_s and
// cpu_s.
func tally(w workload, ins []input, res *childResult) *passResult {
	pr := &passResult{SelfS: res.SelfS, Findings: res.Findings, Metrics: map[string]stat{}}
	var wall, cpu []float64
	searched, accurate := 0, 0
	for i, r := range append(append([]opResult(nil), res.Ops...), res.Traced...) {
		pr.Attempted++
		if err := w.check(ins, r); err != nil {
			pr.Failed++
			pr.Failures = append(pr.Failures, fmt.Sprintf("operation %d (input %d, seed %d): %v", i, r.Input, r.Seed, err))
			continue
		}
		if w.kind != fixedTree {
			searched++
			if s := shortfall(ins[r.Input], r); s <= accuracyTol {
				accurate++
			} else {
				pr.Findings = append(pr.Findings, fmt.Sprintf("operation %d (input %d, seed %d) ended %.2g short of the true tree's logL %.4f", i, r.Input, r.Seed, s, ins[r.Input].refLogL))
			}
		}
		if i < len(res.Ops) {
			wall, cpu = append(wall, r.WallS), append(cpu, r.CPUS)
		}
	}
	// A traced pass repeats one operation, so it has no share to speak of.
	if len(res.Traced) == 0 && float64(accurate) < accuracyShare*float64(searched) {
		pr.Failed++
		pr.Failures = append(pr.Failures, fmt.Sprintf("%d of %d searches came within %g of the true tree's logL, want %g of them", accurate, searched, accuracyTol, accuracyShare))
	}
	if res.Twin != nil {
		if err := agree(ins[0].pat, res.Ops[0], *res.Twin); err != nil {
			pr.Failed++
			pr.Failures = append(pr.Failures, fmt.Sprintf("pooled and serial search of operation 0 disagree: %v", err))
		}
	}
	if res.Mismatch != "" {
		pr.Failed++
		pr.Failures = append(pr.Failures, res.Mismatch)
	}
	if len(wall) > 0 {
		pr.Metrics["wall_s"] = summarise(wall, "s")
		pr.Metrics["cpu_s"] = summarise(cpu, "s")
	}
	return pr
}

// summarise reports the median of the samples, with their range beside it.
func summarise(v []float64, unit string) stat {
	return stat{Value: median(v), Unit: unit, N: len(v), Min: slices.Min(v), Max: slices.Max(v), Samples: v}
}

// runChild runs the program under test and returns its report and its peak
// resident set size.
func runChild(o options, w workload, dir string) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	// The driver allows a run 180 s; a child still going after 170 s is
	// killed so that the run ends with an error instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name, "-scale", o.scale, "-dir", dir,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child process: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("child process: no resource usage")
	}
	data, err := os.ReadFile(filepath.Join(dir, "child.json"))
	if err != nil {
		return nil, 0, err
	}
	var res childResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, 0, err
	}
	if len(res.Ops) == 0 {
		return nil, 0, errors.New("child process reported no operation")
	}
	return &res, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// printPass lists a pass's metrics by name, in catalogue order.
func printPass(out io.Writer, w workload, trace int, pr *passResult) {
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	for _, m := range defs {
		s := pr.Metrics[m.name]
		fmt.Fprintf(out, "%-16s %-44s %14.6g %s", w.name, m.name, s.Value, s.Unit)
		if s.N > 0 {
			fmt.Fprintf(out, "  (n=%d min %.6g max %.6g)", s.N, s.Min, s.Max)
		}
		fmt.Fprintln(out)
		if len(s.Samples) > 1 {
			fmt.Fprintf(out, "%-16s   samples %.4g\n", w.name, s.Samples)
		}
	}
	names := make([]string, 0, len(pr.SelfS))
	for name := range pr.SelfS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-16s self time %-34s %14.6f s\n", w.name, name, pr.SelfS[name])
	}
	fmt.Fprintf(out, "%-16s operations %d failed %d\n", w.name, pr.Attempted, pr.Failed)
	for _, f := range pr.Failures {
		fmt.Fprintf(out, "%-16s FAILED %s\n", w.name, f)
	}
	for _, f := range pr.Findings {
		fmt.Fprintf(out, "%-16s finding: %s\n", w.name, f)
	}
}

// driverRun is the contract of BENCHMARK.json: one pass of one workload,
// ending with one JSON line.
func driverRun(o options, stdout io.Writer) error {
	w, err := findWorkload(o.scale, o.workload)
	if err != nil {
		return err
	}
	pr, err := runPass(o, w)
	if err != nil {
		return err
	}
	printPass(stdout, w, o.trace, pr)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: pr.Failed == 0, Attempted: pr.Attempted, Failed: pr.Failed, Metrics: map[string]value{}}
	for name, s := range pr.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Name            string             `json:"name"`
	Workers         int                `json:"workers"`
	Undersubscribed bool               `json:"undersubscribed"`
	Ops             int                `json:"ops"`
	Failed          int                `json:"failed"`
	Failures        []string           `json:"failures,omitempty"`
	EndToEnd        map[string]stat    `json:"end_to_end"`
	Layers          map[string]stat    `json:"layers"`
	SelfS           map[string]float64 `json:"self_s"`
	Findings        []string           `json:"findings,omitempty"`
}

// resultFile is what runAll writes and compare reads.
type resultFile struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

const resultSchema = "raxmlcell-benchmark/1"

// runAll runs both passes of every workload and writes result.json.
func runAll(o options, stdout io.Writer) error {
	ws, err := workloads(o.scale)
	if err != nil {
		return err
	}
	rf := resultFile{Schema: resultSchema, Host: readHost(), Seed: o.seed, Scale: o.scale, Seconds: o.seconds}
	failed := 0
	for _, w := range ws {
		wr := workloadResult{Name: w.name, Workers: w.workers, Undersubscribed: runtime.GOMAXPROCS(0) < w.workers}
		for trace := 0; trace <= 1; trace++ {
			po := o
			po.trace = trace
			pr, err := runPass(po, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printPass(stdout, w, trace, pr)
			wr.Ops += pr.Attempted
			wr.Failed += pr.Failed
			wr.Failures = append(wr.Failures, pr.Failures...)
			if trace == 0 {
				wr.EndToEnd = pr.Metrics
			} else {
				wr.Layers, wr.SelfS, wr.Findings = pr.Metrics, pr.SelfS, pr.Findings
			}
		}
		if wr.Undersubscribed {
			fmt.Fprintf(stdout, "%-16s undersubscribed: %d workers on GOMAXPROCS %d\n", w.name, w.workers, runtime.GOMAXPROCS(0))
		}
		failed += wr.Failed
		rf.Workloads = append(rf.Workloads, wr)
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed their checks", failed)
	}
	return nil
}

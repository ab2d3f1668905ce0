package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"raxmlcell/internal/search"
)

// TestMain lets the test binary stand in for the benchmark binary: the runner
// starts its child from os.Executable with childEnv set, and that child must
// run the program, not the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func direction(m metricDef) string {
	if m.lower {
		return "lower"
	}
	return "higher"
}

// TestDeclarationMatchesCatalogue holds BENCHMARK.json and the tables the
// runner reports from together, and both within the driver's limits.
func TestDeclarationMatchesCatalogue(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", d.RunSeconds)
	}
	ws, err := workloads("bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, the catalogue has %d", len(d.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := d.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d declared as %q (%q), the catalogue has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the driver's limits", w.name)
		}
	}
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	seen := map[string]bool{}
	match := func(kind string, declared []declaredMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%d %s metrics declared, the runner reports %d", len(declared), kind, len(defs))
		}
		for i, m := range defs {
			got := declared[i]
			if got.Name != m.name || got.Unit != m.unit || got.Better != direction(m) {
				t.Errorf("%s metric %d declared as %+v, the runner reports %+v", kind, i, got, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s metric %q (%q): name or unit outside the driver's limits, or used twice", kind, m.name, m.unit)
			}
			seen[m.name] = true
			switch {
			case !bounded && got.Bound != nil:
				t.Errorf("per-layer metric %q declares a bound", m.name)
			case bounded && (got.Bound == nil || *got.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("end-to-end metric %q: bound declared %v, runner %g, want the same in (0, 0.25]", m.name, got.Bound, m.bound)
			}
		}
	}
	match("end-to-end", d.EndToEnd, endToEnd, true)
	match("per-layer", d.PerLayer, perLayer, false)
}

// TestSmokeRun runs both passes of every workload at the smoke scale, on a
// seed other than the default, and checks that every declared metric is
// reported with its unit and that no operation failed.
func TestSmokeRun(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-scale", "smoke", "-seed", "2", "-seconds", "0.2", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rf, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rf.Seed != 2 || rf.Host.NProc < 1 || rf.Host.GOMAXPROCS < 1 || rf.Host.GoVersion == "" || rf.Host.CPUModel == "" || rf.Host.Commit == "" {
		t.Errorf("result file does not describe its host and seed: seed %d, host %+v", rf.Seed, rf.Host)
	}
	ws, _ := workloads("smoke")
	if len(rf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the result, want %d", len(rf.Workloads), len(ws))
	}
	for i, wr := range rf.Workloads {
		if wr.Name != ws[i].name || wr.Ops < 2 || wr.Failed != 0 {
			t.Errorf("workload %d: %s with %d operations, %d failed: %v", i, wr.Name, wr.Ops, wr.Failed, wr.Failures)
		}
		for _, m := range endToEnd {
			if s, ok := wr.EndToEnd[m.name]; !ok || s.Unit != m.unit || !(s.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", wr.Name, m.name, s, m.unit)
			}
		}
		for _, m := range perLayer {
			if s, ok := wr.Layers[m.name]; !ok || s.Unit != m.unit || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v, want a finite value in %s", wr.Name, m.name, s, m.unit)
			}
			if !strings.Contains(stdout.String(), m.name) {
				t.Errorf("metric %s is not printed by name", m.name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wr.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", wr.Name, err)
		}
	}

	// Two result files of one commit and one seed must not read as a change.
	var cmp bytes.Buffer
	if compareResults(rf, rf, &cmp) {
		t.Errorf("a result compared with itself regressed:\n%s", cmp.String())
	}
}

// TestDriverLine runs one workload the way the driver does and checks the
// last line of standard output against the declaration.
func TestDriverLine(t *testing.T) {
	out := t.TempDir()
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "search20-pool", "--seed", "3", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace], "-scale", "smoke", "-out", out}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %d: last line has keys %v, want correct, attempted, failed, metrics", trace, line)
		}
		var correct bool
		var attempted, failed int
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		for key, into := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
			if err := json.Unmarshal(line[key], into); err != nil {
				t.Fatalf("trace %d: key %s: %v", trace, key, err)
			}
		}
		if !correct || attempted < 1 || failed != 0 {
			t.Errorf("trace %d: correct %v, attempted %d, failed %d", trace, correct, attempted, failed)
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics on the last line, want %d", trace, len(metrics), len(defs))
		}
		for _, m := range defs {
			if got, ok := metrics[m.name]; !ok || got.Value == nil || got.Unit != m.unit {
				t.Errorf("trace %d: metric %s = %+v, want a value in %s", trace, m.name, got, m.unit)
			}
		}
	}
}

// TestChecksBite proves that a wrong answer is counted: a perturbed
// log-likelihood, a swapped tree, a tree no search should stop at and a
// dropped job each make one failure, and a failed operation is not a timing
// sample.
func TestChecksBite(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, ops int) (workload, []input, *childResult) {
		w, err := findWorkload("smoke", name)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := w.setup(2, dir)
		if err != nil {
			t.Fatal(err)
		}
		p := &program{w: w, seed: 2, dir: dir}
		res := &childResult{}
		for i := 0; i < ops; i++ {
			res.Ops = append(res.Ops, p.run(i, nil))
		}
		if pr := tally(w, ins, res); pr.Failed != 0 || pr.Attempted != ops || pr.Metrics["wall_s"].N != ops {
			t.Fatalf("%s: untouched results: %d of %d failed, %d samples: %v", name, pr.Failed, pr.Attempted, pr.Metrics["wall_s"].N, pr.Failures)
		}
		return w, ins, res
	}
	// bites wants one failure, and the failed operation kept out of the
	// timing samples unless it is the run's accuracy that failed.
	bites := func(what string, w workload, ins []input, res *childResult, samples int) {
		t.Helper()
		pr := tally(w, ins, res)
		if pr.Failed != 1 || pr.Metrics["wall_s"].N != samples {
			t.Errorf("%s: %d failed, %d of %d operations sampled, want 1 and %d: %v", what, pr.Failed, pr.Metrics["wall_s"].N, len(res.Ops), samples, pr.Failures)
		}
	}

	w, ins, res := run("search20-serial", 2)
	good := append([]opResult(nil), res.Ops...)
	res.Ops[0].LogL += 1e-4 * math.Abs(res.Ops[0].LogL)
	bites("perturbed logL", w, ins, res, 1)
	// Operation 1 read another alignment, so its tree is a valid answer to
	// the wrong question.
	res.Ops = append([]opResult(nil), good...)
	res.Ops[0].Newick = good[1].Newick
	bites("swapped tree", w, ins, res, 1)
	// A correctly scored tree that no search would stop at.
	res.Ops = append([]opResult(nil), good...)
	poor, err := search.StartingTree(ins[1].pat, "random", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ll, err := reevaluate(ins[1].pat, poor.Newick(), startAlpha)
	if err != nil {
		t.Fatal(err)
	}
	res.Ops[1].Newick, res.Ops[1].LogL, res.Ops[1].Alpha = poor.Newick(), ll, startAlpha
	bites("inaccurate tree", w, ins, res, 2)

	w, ins, res = run("campaign20", 2)
	res.Ops[1].Jobs = res.Ops[1].Jobs[1:]
	bites("dropped job", w, ins, res, 1)
}

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.10, 0.90, 1.05, 0.95, 1.02, 0.98, 1.00}
	scaled := func(f ...float64) stat {
		v := make([]float64, len(base))
		for i := range v {
			v[i] = base[i] * f[i%len(f)]
		}
		return summarise(v, "s")
	}
	for _, tc := range []struct {
		name string
		b    stat
		want verdict
	}{
		{"same", scaled(1), unchanged},
		{"within the bound", scaled(1.03, 1.01), unchanged},
		{"slower", scaled(1.2, 1.15), worse},
		{"faster", scaled(0.8, 0.85), better},
		{"slower on half the operations", scaled(1.4, 0.9), unresolved},
		{"noisy around the base", scaled(1.2, 0.85, 1.0, 1.1), unresolved},
	} {
		if _, got := judge(scaled(1), tc.b, 0.07); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, got := judge(stat{Value: 20, Unit: "MB"}, stat{Value: 30, Unit: "MB"}, 0.15); got != worse {
		t.Errorf("single value 20 -> 30: verdict %s, want worse", got)
	}
}

func TestCompareResults(t *testing.T) {
	file := func(wall float64, failed int, undersubscribed bool) *resultFile {
		e2e := map[string]stat{}
		for _, m := range endToEnd {
			e2e[m.name] = summarise([]float64{1, 1.1, 0.9}, m.unit)
		}
		e2e["wall_s"] = summarise([]float64{wall, 1.1 * wall, 0.9 * wall}, "s")
		return &resultFile{Schema: resultSchema, Seed: 1, Scale: "bench", Workloads: []workloadResult{
			{Name: "search20-pool", Workers: 2, Undersubscribed: undersubscribed, Ops: 3, Failed: failed, EndToEnd: e2e},
		}}
	}
	for _, tc := range []struct {
		name      string
		a, b      *resultFile
		regressed bool
		says      string
	}{
		{"same", file(1, 0, false), file(1, 0, false), false, "unchanged"},
		{"slower", file(1, 0, false), file(1.5, 0, false), true, "worse"},
		{"faster", file(1, 0, false), file(0.5, 0, false), false, "better"},
		{"slower, too few processors", file(1, 0, true), file(1.5, 0, true), false, "unresolved"},
		{"more failures", file(1, 0, false), file(1, 1, false), true, "1 of 3"},
	} {
		var out bytes.Buffer
		if got := compareResults(tc.a, tc.b, &out); got != tc.regressed || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: regressed %v, want %v and %q in\n%s", tc.name, got, tc.regressed, tc.says, out.String())
		}
	}
	other := file(1, 0, false)
	other.Seed = 2
	var out bytes.Buffer
	if compareResults(file(1, 0, false), other, &out); !strings.Contains(out.String(), "seeds or scales differ") {
		t.Errorf("comparing two seeds does not say that operations do not pair up:\n%s", out.String())
	}
}

// TestRunnerAvoidsRetiredAPI keeps the runner off the options the roadmap
// retires, so that the benchmark outlives them and measures the defaults.
func TestRunnerAvoidsRetiredAPI(t *testing.T) {
	retired := regexp.MustCompile(`\b(Incremental|Threads|NoSharedCache|NoTopoMemo|TopoMemoCap)\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if loc := retired.FindIndex(data); loc != nil {
			t.Errorf("%s names %s", f, data[loc[0]:loc[1]])
		}
	}
}

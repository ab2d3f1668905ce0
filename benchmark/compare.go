package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is compare's judgement of one (workload, end-to-end metric) pair.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// judge compares B against base A for a lower-is-better metric with the
// given bound. Two result files of one seed ran the same operations in the
// same order, so the samples pair up and the ratios B[i]/A[i] are free of
// the differences between inputs; a metric with one value per run is a
// single pair.
//
// The median ratio decides the direction. It counts as resolved only when
// the pairs agree: a change beyond the bound needs three quarters of the
// pairs on its side of 1, and "unchanged" needs the quartiles of the ratios
// within the bound of each other.
func judge(a, b stat, bound float64) (ratio float64, v verdict) {
	as, bs := a.Samples, b.Samples
	if len(as) == 0 || len(bs) == 0 {
		as, bs = []float64{a.Value}, []float64{b.Value}
	}
	n := min(len(as), len(bs))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if as[i] > 0 {
			ratios = append(ratios, bs[i]/as[i])
		}
	}
	if len(ratios) == 0 {
		return 0, unresolved
	}
	sort.Float64s(ratios)
	q := func(p float64) float64 { return ratios[int(p*float64(len(ratios)-1)+0.5)] }
	q1, med, q3 := q(0.25), q(0.5), q(0.75)
	switch {
	case med > 1+bound:
		if q1 > 1 {
			return med, worse
		}
	case med < 1-bound:
		if q3 < 1 {
			return med, better
		}
	default:
		if q3-q1 <= bound {
			return med, unchanged
		}
	}
	return med, unresolved
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// compareMain prints, for every workload and end-to-end metric, both
// values with their ranges, the ratio B/A and a verdict, and returns non-zero
// when any metric is worse or a larger share of operations failed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json   (A is the base)")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	if compareResults(a, b, stdout) {
		return 1
	}
	return 0
}

// compareResults reports whether B regressed against A.
func compareResults(a, b *resultFile, out io.Writer) (regressed bool) {
	fmt.Fprintf(out, "base A: seed %d, %s, %d procs, commit %s\n", a.Seed, a.Host.CPUModel, a.Host.GOMAXPROCS, a.Host.Commit)
	fmt.Fprintf(out, "     B: seed %d, %s, %d procs, commit %s\n", b.Seed, b.Host.CPUModel, b.Host.GOMAXPROCS, b.Host.Commit)
	paired := a.Seed == b.Seed && a.Scale == b.Scale
	if !paired {
		fmt.Fprintln(out, "seeds or scales differ: operations do not pair up, every time is unresolved")
	}
	fmt.Fprintf(out, "%-16s %-12s %28s %28s %10s  %s\n", "workload", "metric", "A (min-max)", "B (min-max)", "B/A", "verdict")
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-16s missing from B\n", wa.Name)
			regressed = true
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			r, v := judge(sa, sb, m.bound)
			switch {
			case !paired && len(sa.Samples) > 1:
				v = unresolved
			case m.name == "wall_s" && (wa.Undersubscribed || wb.Undersubscribed):
				// More workers than processors: wall time measures the
				// scheduler, not the program.
				v = unresolved
			}
			fmt.Fprintf(out, "%-16s %-12s %28s %28s %10.4f  %s (bound %g)\n", wa.Name, m.name, span3(sa), span3(sb), r, v, m.bound)
			regressed = regressed || v == worse
		}
		fa, fb := share(wa.Failed, wa.Ops), share(wb.Failed, wb.Ops)
		fmt.Fprintf(out, "%-16s %-12s %28s %28s\n", wa.Name, "failed", fmt.Sprintf("%d of %d", wa.Failed, wa.Ops), fmt.Sprintf("%d of %d", wb.Failed, wb.Ops))
		regressed = regressed || fb > fa
	}
	return regressed
}

func share(failed, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}

func span3(s stat) string {
	if s.N == 0 {
		return fmt.Sprintf("%.4g %s", s.Value, s.Unit)
	}
	return fmt.Sprintf("%.4g (%.4g-%.4g) %s", s.Value, s.Min, s.Max, s.Unit)
}

package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/phylotree/treegen"
)

// repeatPatterns draws an alignment with what site repeats meet in real
// data: columns over bases, ambiguity codes and gaps, invariant and all-gap
// columns, and taxa whose sequences duplicate another's.
func repeatPatterns(t *testing.T, rng *rand.Rand, nTaxa, nSites int) *alignment.Patterns {
	t.Helper()
	const mixed = "ACGTACGTACGTRYN-"
	rows := make([][]byte, nTaxa)
	for i := range rows {
		rows[i] = make([]byte, nSites)
	}
	for j := 0; j < nSites; j++ {
		switch rng.Intn(10) {
		case 0: // invariant
			b := "ACGT"[rng.Intn(4)]
			for i := range rows {
				rows[i][j] = b
			}
		case 1: // all gaps
			for i := range rows {
				rows[i][j] = '-'
			}
		default:
			for i := range rows {
				rows[i][j] = mixed[rng.Intn(len(mixed))]
			}
		}
	}
	for d := 0; d < nTaxa/4; d++ {
		copy(rows[rng.Intn(nTaxa)], rows[rng.Intn(nTaxa)])
	}
	seqs, names := make([]string, nTaxa), make([]string, nTaxa)
	for i, r := range rows {
		seqs[i], names[i] = string(r), fmt.Sprintf("t%03d", i)
	}
	return patternsFrom(t, seqs, names)
}

// repeatCase is one generated input of the repeat properties.
type repeatCase struct {
	name string
	pat  *alignment.Patterns
	m    *model.Model
	tr   *phylotree.Tree
}

// repeatCases are trees of 4 to 60 taxa drawn through phylo2vec over inputs
// of one, two and three blocks, and a 500-taxon caterpillar whose long
// branches make scaling fire.
func repeatCases(t *testing.T) []repeatCase {
	t.Helper()
	rng := rand.New(rand.NewSource(2801))
	var out []repeatCase
	for _, c := range []struct{ taxa, sites, blocks int }{
		{4, 300, 1}, {9, 300, 1}, {60, 300, 1}, {13, 900, 2}, {37, 1500, 3},
	} {
		pat := repeatPatterns(t, rng, c.taxa, c.sites)
		if got := (pat.NumPatterns() + rangeBlock - 1) / rangeBlock; got != c.blocks {
			t.Fatalf("%d taxa x %d sites: %d patterns, %d blocks, want %d", c.taxa, c.sites, pat.NumPatterns(), got, c.blocks)
		}
		tr := treegen.Phylo2Vec(pat.Names, rng)
		for _, e := range tr.Edges() {
			e.SetZ(0.02 + 0.3*rng.Float64())
		}
		out = append(out, repeatCase{fmt.Sprintf("%d taxa, %d blocks", c.taxa, c.blocks), pat, randomModel(t, rng, 4), tr})
	}
	pat := repeatPatterns(t, rng, 500, 40)
	tr := treegen.Caterpillar(pat.Names)
	for _, e := range tr.Edges() {
		e.SetZ(0.3 + rng.Float64())
	}
	return append(out, repeatCase{"500-taxon caterpillar", pat, randomModel(t, rng, 4), tr})
}

// repeatTrace is what one engine returned on a case: log-likelihoods, per-site
// logs and optimised lengths in call order, every stored vector written out
// one row per pattern after each evaluate, and the meter it left.
type repeatTrace struct {
	vals      []float64
	slots     [][]float64
	scales    [][]int32
	meter     Meter
	underflow uint64
}

// driveRepeats evaluates tr at a sample of edges, takes per-site logs and
// runs a MakeNewz sweep over a sample of edges, on a clone of tr so that the
// caller's branch lengths stay.
func driveRepeats(t *testing.T, e *Engine, tr *phylotree.Tree) repeatTrace {
	t.Helper()
	tr = tr.Clone()
	edges := tr.Edges()
	rng := rand.New(rand.NewSource(int64(len(edges))))
	var k repeatTrace
	for i := 0; i < 6; i++ {
		ll, err := e.Evaluate(edges[rng.Intn(len(edges))])
		if err != nil {
			t.Fatal(err)
		}
		k.vals = append(k.vals, ll)
		for _, r := range internalRecords(tr) {
			if s := e.entryOf(r); s != nil && s.buf.lv != nil {
				lv, sc := expandVec(e, s.vec())
				k.slots, k.scales = append(k.slots, lv), append(k.scales, sc)
			}
		}
	}
	ps, err := e.PerSiteLogL(tr.Tips[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	k.vals = append(k.vals, ps...)
	for i := 0; i < 8; i++ {
		z, ll, err := e.MakeNewz(edges[rng.Intn(len(edges))])
		if err != nil {
			t.Fatal(err)
		}
		k.vals = append(k.vals, z, ll)
	}
	k.meter, k.underflow = e.Meter, e.UnderflowSites()
	return k
}

// withoutRows is m without the counts repeats change: the flops and the
// rows a newview computes, with the scaling checks, events and bytes that go
// with each row, and the class passes.
func withoutRows(m Meter) Meter {
	m.Muls, m.Adds, m.ScaleChecks, m.ScaleEvents, m.BytesStreamed = 0, 0, 0, 0, 0
	m.CombineRows, m.ClassPasses = 0, 0
	return m
}

// identityEngine builds an engine with one row per pattern, as engines were
// before repeats.
func identityEngine(t *testing.T, c repeatCase, cfg Config) *Engine {
	t.Helper()
	cfg.noRepeats = true
	e, err := NewEngine(c.pat, c.m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRepeatsMatchPerPattern: an engine that computes one row per repeat
// class gives, bit for bit, what one row per pattern gives — every slot
// vector read through its class map, scale counts, logL, per-site logL and
// a MakeNewz sweep — and the same meter but for the flops and the per-row
// counts, on both backends at GOMAXPROCS 1 and 4.
func TestRepeatsMatchPerPattern(t *testing.T) {
	for _, c := range repeatCases(t) {
		for _, backend := range Backends() {
			for _, procs := range []int{1, 4} {
				cfg := Config{Backend: backend}
				restore := setProcs(procs)
				rep, err := NewEngine(c.pat, c.m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := driveRepeats(t, rep, c.tr)
				want := driveRepeats(t, identityEngine(t, c, cfg), c.tr)
				restore()
				stage := fmt.Sprintf("%s/%s/GOMAXPROCS %d", c.name, backend, procs)
				if d := (kernelTrace{vals: got.vals}).diff(kernelTrace{vals: want.vals}); d != "" {
					t.Fatalf("%s: %s", stage, d)
				}
				if len(got.slots) != len(want.slots) {
					t.Fatalf("%s: %d valid slots, per pattern %d", stage, len(got.slots), len(want.slots))
				}
				for i := range got.slots {
					for j := range got.slots[i] {
						if got.slots[i][j] != want.slots[i][j] {
							t.Fatalf("%s: slot %d entry %d = %.17g, per pattern %.17g", stage, i, j, got.slots[i][j], want.slots[i][j])
						}
					}
					for j := range got.scales[i] {
						if got.scales[i][j] != want.scales[i][j] {
							t.Fatalf("%s: slot %d scale %d = %d, per pattern %d", stage, i, j, got.scales[i][j], want.scales[i][j])
						}
					}
				}
				if withoutRows(got.meter) != withoutRows(want.meter) || got.underflow != want.underflow {
					t.Fatalf("%s: meters differ beyond the rows:\n %s\n %s", stage, got.meter.String(), want.meter.String())
				}
				m, w := &got.meter, &want.meter
				if w.CombineRows != w.BigLoopIters || w.ClassPasses != 0 {
					t.Errorf("%s: one row per pattern computed %d rows for %d patterns in %d class passes", stage, w.CombineRows, w.BigLoopIters, w.ClassPasses)
				}
				if m.CombineRows >= m.BigLoopIters || m.ClassPasses == 0 || m.Flops() >= w.Flops() {
					t.Errorf("%s: repeats computed %d rows for %d patterns in %d class passes, %d flops against %d", stage,
						m.CombineRows, m.BigLoopIters, m.ClassPasses, m.Flops(), w.Flops())
				}
				if c.pat.NumTaxa == 500 && w.ScaleEvents == 0 {
					t.Errorf("%s: scaling never fired", stage)
				}
			}
		}
	}
}

// TestRepeatsPulleyPrinciple: the log-likelihood of a reversible model does
// not depend on where the tree is rooted, so evaluating at every edge (every
// caterpillar edge of a sample) agrees within 1e-9 relative.
func TestRepeatsPulleyPrinciple(t *testing.T) {
	for _, c := range repeatCases(t) {
		e, err := NewEngine(c.pat, c.m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		edges := c.tr.Edges()
		if len(edges) > 120 {
			rng := rand.New(rand.NewSource(2802))
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			edges = edges[:64]
		}
		ref := math.NaN()
		for i, ed := range edges {
			ll, err := e.Evaluate(ed)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = ll
			} else if math.Abs(ll-ref) > 1e-9*math.Abs(ref) {
				t.Fatalf("%s: logL %.12f at edge %d, %.12f at the first", c.name, ll, i, ref)
			}
		}
	}
}

// TestRepeatsKeptAcrossLengthsAndModels: the classes of a record depend on
// the topology behind it only, so neither a MakeNewz nor a model swap makes
// the next newview number any class again, though both make it recompute.
func TestRepeatsKeptAcrossLengthsAndModels(t *testing.T) {
	rng := rand.New(rand.NewSource(2803))
	pat := repeatPatterns(t, rng, 12, 200)
	m := randomModel(t, rng, 4)
	tr := treegen.Phylo2Vec(pat.Names, rng)
	e, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachTree(tr)
	for _, r := range internalRecords(tr) {
		mustVector(t, e, r)
	}
	if want := uint64(len(internalRecords(tr))); e.Meter.ClassPasses != want {
		t.Fatalf("the %d records of a tree took %d class passes", want, e.Meter.ClassPasses)
	}
	for _, step := range []struct {
		name string
		edit func() error
	}{
		{"MakeNewz", func() error {
			_, _, err := e.MakeNewz(tr.Edges()[3])
			return err
		}},
		{"SetModel", func() error {
			m2, err := e.Mod.WithAlpha(1.7)
			if err != nil {
				return err
			}
			return e.SetModel(m2)
		}},
	} {
		passes, newviews := e.Meter.ClassPasses, e.Meter.NewviewCalls
		if err := step.edit(); err != nil {
			t.Fatal(err)
		}
		mustVector(t, e, tr.Tips[0].Back)
		if _, err := e.Evaluate(tr.Tips[5]); err != nil {
			t.Fatal(err)
		}
		if e.Meter.NewviewCalls == newviews {
			t.Errorf("%s: nothing recomputed", step.name)
		}
		if e.Meter.ClassPasses != passes {
			t.Errorf("%s: %d class passes after it", step.name, e.Meter.ClassPasses-passes)
		}
	}
}

// behindBranch reports the inner records whose subtree contains the branch
// (a, a.Back): every record of the branch's component but those that face it.
func behindBranch(a *phylotree.Node) map[*phylotree.Node]bool {
	facing, all := map[*phylotree.Node]bool{}, map[*phylotree.Node]bool{}
	var walk func(r *phylotree.Node) // r faces the branch; so do the records behind it that point its way
	walk = func(r *phylotree.Node) {
		if r == nil || r.IsTip() {
			return
		}
		facing[r] = true
		for _, m := range r.Ring() {
			all[m] = true
		}
		walk(r.Next.Back)
		walk(r.Next.Next.Back)
	}
	walk(a)
	walk(a.Back)
	for r := range facing {
		delete(all, r)
	}
	return all
}

// TestRepeatsDroppedByInvalidate: the topology hook's invalidation drops the
// classes of exactly the records behind the branch; a length edit keeps them.
func TestRepeatsDroppedByInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2805))
	pat := repeatPatterns(t, rng, 14, 200)
	tr := treegen.Phylo2Vec(pat.Names, rng)
	e, err := NewEngine(pat, randomModel(t, rng, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range tr.Edges() {
		for _, r := range internalRecords(tr) {
			mustVector(t, e, r)
		}
		behind := behindBranch(edge)
		e.invalidate(edge, true)
		for _, r := range internalRecords(tr) {
			if (e.classes(r) == nil) != behind[r] {
				t.Fatalf("edge at node %d: record of node %d has classes %v, behind the branch %v",
					edge.Index, r.Index, e.classes(r) != nil, behind[r])
			}
		}
	}
}

// TestRepeatsDroppedOnlyBehindTopologyEdits: a Prune, a Regraft and an
// Undo drop exactly the classes of the records whose subtree holds a branch
// the edit notified, and every class left equals a fresh engine's.
func TestRepeatsDroppedOnlyBehindTopologyEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(2804))
	pat := repeatPatterns(t, rng, 16, 200)
	m := randomModel(t, rng, 4)
	tr := treegen.Phylo2Vec(pat.Names, rng)
	var notified map[*phylotree.Node]bool
	tr.OnBranchChange(func(a *phylotree.Node, topo bool) { // runs before the engine's hook
		if !topo || a.Back == nil {
			return
		}
		for r := range behindBranch(a) {
			notified[r] = true
		}
	})
	e, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachTree(tr)
	classed := func() map[*phylotree.Node]bool {
		out := map[*phylotree.Node]bool{}
		for _, r := range internalRecords(tr) {
			if e.classes(r) != nil {
				out[r] = true
			}
		}
		return out
	}
	everyView := func() {
		for _, r := range internalRecords(tr) {
			mustVector(t, e, r)
		}
	}
	for round := 0; round < 6; round++ {
		everyView()
		var prunable []*phylotree.Node
		for _, r := range internalRecords(tr) {
			if !r.Next.Back.IsTip() || !r.Next.Next.Back.IsTip() {
				prunable = append(prunable, r)
			}
		}
		before := classed()
		notified = map[*phylotree.Node]bool{}
		ps, err := tr.Prune(prunable[rng.Intn(len(prunable))])
		if err != nil {
			t.Fatal(err)
		}
		targets := append(radiusEdges(ps.Q, 3), radiusEdges(ps.R, 3)...)
		if round%2 == 0 || len(targets) == 0 {
			err = tr.Undo(ps)
		} else {
			err = tr.Regraft(ps, targets[rng.Intn(len(targets))])
		}
		if err != nil {
			t.Fatal(err)
		}
		after := classed()
		for r := range before {
			if after[r] == notified[r] {
				t.Fatalf("round %d: record of node %d has classes %v after the edit, notified %v", round, r.Index, after[r], notified[r])
			}
		}
		everyView()
		fresh, err := NewEngine(pat, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cl := tr.Clone()
		mine, theirs := tr.Edges(), cl.Edges()
		for i := range mine {
			for _, rr := range [...][2]*phylotree.Node{{mine[i], theirs[i]}, {mine[i].Back, theirs[i].Back}} {
				if rr[0].IsTip() {
					continue
				}
				mustVector(t, fresh, rr[1])
				got, want := e.classes(rr[0]), fresh.classes(rr[1])
				if !sameClasses(got, want) {
					t.Fatalf("round %d: node %d has %d classes, a fresh engine %d, or another map", round, rr[0].Index, got.rows, want.rows)
				}
			}
		}
	}
}

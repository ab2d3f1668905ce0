package likelihood

import (
	"math/rand"
	"slices"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// tablesFor is how many class tables the rule gives the vectors vs of an
// operation over rows rows on an engine that reads them.
func tablesFor(rows int, vs ...vec) uint64 {
	n := uint64(0)
	for _, v := range vs {
		if v.cls != nil && classTableRatio*v.rows <= rows {
			n++
		}
	}
	return n
}

// TestClassTablesMatchScalar drives every path that reads a class table —
// a slot newview whose child has few classes beside a sibling with many, on
// either side; an evaluate whose inner q-side has few; a prescore's combine;
// CarryAcross — on a 24-taxon simulated tree over three blocks of patterns,
// and requires the batched engine's vectors, logs, carried vectors,
// prescores and meter to be the scalar engine's bit for bit, and its tables
// to be built exactly where the rule gives one.
func TestClassTablesMatchScalar(t *testing.T) {
	withProcs(t, 2)
	m := seqsim.DefaultModel()
	a, tr, err := seqsim.Generate(seqsim.Params{Taxa: 24, Sites: 2000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1},
		m, rand.New(rand.NewSource(3701)))
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	if err := tr.AlignTaxa(pat.Names); err != nil {
		t.Fatal(err)
	}
	npat := pat.NumPatterns()
	if npat <= 2*rangeBlock {
		t.Fatalf("%d patterns, want three blocks", npat)
	}
	ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := NewEngine(pat, m, Config{Backend: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	ref.AttachTree(tr)
	alt.AttachTree(tr)
	tabled := func(want uint64, stage string, run func()) {
		t.Helper()
		before := alt.scr.tabled
		run()
		if got := alt.scr.tabled - before; got != want {
			t.Fatalf("%s built %d class tables, the rule gives %d", stage, got, want)
		}
	}

	// Newviews: one combine per record, its children current first.
	var sides [2]uint64
	for _, p := range internalRecords(tr) {
		q, r := p.Next.Back, p.Next.Next.Back
		for _, e := range [...]*Engine{ref, alt} {
			e.NewView(q)
			e.NewView(r)
		}
		ref.computeView(p)
		rows := ref.classes(p).rows
		qs, rs := tablesFor(rows, alt.slotVec(q)), tablesFor(rows, alt.slotVec(r))
		tabled(qs+rs, "a newview", func() { alt.computeView(p) })
		sides[0] += qs
		sides[1] += rs
		assertVectorsEqual(t, "newview", alt, alt.slotVec(p), ref.slotVec(p))
	}

	// Evaluates across every branch, per-site logs included.
	evals := uint64(0)
	for _, edge := range tr.Edges() {
		p, q := edge, edge.Back
		if p.IsTip() {
			p, q = q, p
		}
		for _, e := range [...]*Engine{ref, alt} {
			e.NewView(p)
			e.NewView(q)
		}
		want, err := ref.PerSiteLogL(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := tablesFor(npat, alt.slotVec(q))
		var got []float64
		tabled(n, "an evaluate", func() { got, err = alt.PerSiteLogL(p, nil) })
		if err != nil {
			t.Fatal(err)
		}
		evals += n
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("evaluate across %d: pattern %d logs %.17g, scalar %.17g", p.Index, i, got[i], want[i])
			}
		}
	}

	// Prunes of every cherry and of the subtrees beside them: the carried
	// vector, then every prescore within radius 3.
	carries, prescores := uint64(0), uint64(0)
	for _, p := range internalRecords(tr) {
		if !p.Next.Back.IsTip() || !p.Next.Next.Back.IsTip() {
			continue
		}
		for _, cut := range [...]*phylotree.Node{p.Back, p.Back.Next, p.Back.Next.Next} {
			if cut.Back == nil || cut.IsTip() {
				continue
			}
			ps, err := tr.Prune(cut)
			if err != nil {
				continue
			}
			var across [2]Across
			for _, e := range [...]*Engine{ref, alt} {
				e.NewView(ps.Q)
				e.NewView(ps.R)
				e.NewView(ps.P.Back)
			}
			if err := ref.CarryAcross(&across[0], ps.P, 0.05); err != nil {
				t.Fatal(err)
			}
			n := tablesFor(npat, alt.slotVec(ps.P.Back))
			tabled(n, "CarryAcross", func() { err = alt.CarryAcross(&across[1], ps.P, 0.05) })
			if err != nil {
				t.Fatal(err)
			}
			carries += n
			if !slices.Equal(across[1].proj, across[0].proj) || !slices.Equal(across[1].sc, across[0].sc) {
				t.Fatalf("CarryAcross of %d differs from scalar", ps.P.Back.Index)
			}
			for _, cand := range append(radiusEdges(ps.Q, 3), radiusEdges(ps.R, 3)...) {
				var vs [2][2]vec // each engine's two sides, computed before the prescore
				for i, v := range [...]*Engine{ref, alt} {
					vs[i][0], _ = v.vector(cand)
					vs[i][1], _ = v.vector(cand.Back)
				}
				want, err := ref.Prescore(cand, &across[0])
				if err != nil {
					t.Fatal(err)
				}
				n := tablesFor(npat, vs[1][:]...)
				var got float64
				tabled(n, "a prescore", func() { got, err = alt.Prescore(cand, &across[1]) })
				if err != nil {
					t.Fatal(err)
				}
				prescores += n
				if got != want {
					t.Fatalf("prescore of %d into %d: %.17g, scalar %.17g", ps.P.Back.Index, cand.Index, got, want)
				}
			}
			if err := tr.Undo(ps); err != nil {
				t.Fatal(err)
			}
		}
	}

	if alt.Meter != ref.Meter {
		t.Errorf("meters diverge:\n scalar  %s\n batched %s", ref.Meter.String(), alt.Meter.String())
	}
	t.Logf("class tables: newview q-side %d, r-side %d; evaluate %d; CarryAcross %d; prescore %d", sides[0], sides[1], evals, carries, prescores)
	if sides[0] == 0 || sides[1] == 0 || evals == 0 || carries == 0 || prescores == 0 {
		t.Errorf("a path went untested")
	}
}

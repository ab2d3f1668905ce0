package likelihood

import (
	"cmp"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// benchShapes are the two engine shapes the set-up benchmarks run on:
// a 20 × 500 alignment at the paper's divergence (about 70 patterns, where a
// newview's matrices and tip tables cost as much as its rows) and a
// wide24-shaped one (24 × 10 000, about 5 800 patterns, where they are a
// small share of an inner–inner newview's thousands of repeat-class rows).
var benchShapes = []struct {
	name   string
	params seqsim.Params
}{
	{"20x500", seqsim.Params{Taxa: 20, Sites: 500, MeanBranch: 0.02, Alpha: 0.8, InvariantFraction: 0.6}},
	{"24x10000", seqsim.Params{Taxa: 24, Sites: 10000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1}},
}

// benchEngine simulates an alignment of the given shape and returns a Γ4
// engine over it with every vector of the true tree current.
func benchEngine(b *testing.B, p seqsim.Params) (*Engine, *phylotree.Tree) {
	b.Helper()
	m := seqsim.DefaultModel()
	a, tr, err := seqsim.Generate(p, m, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	pat := alignment.Compress(a)
	if err := tr.AlignTaxa(pat.Names); err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng.AttachTree(tr)
	if _, err := eng.Evaluate(tr.Tips[0]); err != nil {
		b.Fatal(err)
	}
	return eng, tr
}

// BenchmarkTransitionMatrices times one call's matrix build on the 20 × 500
// engine: Γ4, and CAT with 25 rate categories.
func BenchmarkTransitionMatrices(b *testing.B) {
	gamma, _ := benchEngine(b, benchShapes[0].params)
	rates := make([]float64, 25)
	patCat := make([]int, gamma.npat)
	for i := range rates {
		rates[i] = 0.05 + 0.2*float64(i)
	}
	for i := range patCat {
		patCat[i] = i % len(rates)
	}
	m, err := model.NewCATModel(gamma.Mod.GTR, rates, patCat, gamma.Pat.Weights)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := NewEngine(gamma.Pat, m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  *Engine
	}{{"gamma4", gamma}, {"cat25", cat}} {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.eng.ctx0
			for i := 0; b.Loop(); i++ {
				c.transitionMatrices(0.01+float64(i&63)*0.003, c.pLeft)
			}
		})
	}
}

// BenchmarkNewview times one newview of a tip–inner, an inner–inner (no
// child a cherry) and an inner–cherry record (both children inner, one of
// them over two tips: the combine that reads the cherry's class table),
// their children's vectors
// current: the matrices, the tip tables, the class tables and the rows of
// the combine.
func BenchmarkNewview(b *testing.B) {
	cherry := func(n *phylotree.Node) bool { return !n.IsTip() && n.Next.Back.IsTip() && n.Next.Next.Back.IsTip() }
	for _, shape := range benchShapes {
		eng, tr := benchEngine(b, shape.params)
		var tipInner, innerInner, innerCherry *phylotree.Node
		for _, e := range tr.Edges() {
			for _, r := range [...]*phylotree.Node{e, e.Back} {
				if r.IsTip() {
					continue
				}
				q, w := r.Next.Back, r.Next.Next.Back
				switch {
				case q.IsTip() != w.IsTip():
					tipInner = cmp.Or(tipInner, r)
				case q.IsTip():
				case !cherry(q) && !cherry(w):
					innerInner = cmp.Or(innerInner, r)
				case cherry(q) != cherry(w):
					innerCherry = cmp.Or(innerCherry, r)
				}
			}
		}
		for _, tc := range []struct {
			name string
			p    *phylotree.Node
		}{{"tip-inner", tipInner}, {"inner-inner", innerInner}, {"inner-cherry", innerCherry}} {
			if tc.p == nil {
				continue
			}
			b.Run(shape.name+"/"+tc.name, func(b *testing.B) {
				eng.NewView(tc.p)
				rows := eng.Meter.CombineRows
				for b.Loop() {
					eng.orient[tc.p.Index] = nil
					eng.NewView(tc.p)
				}
				b.ReportMetric(float64(eng.npat), "patterns")
				b.ReportMetric(float64(eng.Meter.CombineRows-rows)/float64(b.N), "rows/op")
			})
		}
	}
}

// BenchmarkNewtonDerivs times the derivative pass a Newton iteration makes,
// on the sum table of an inner branch: the three exponential blocks and
// one pass over the table's patterns.
func BenchmarkNewtonDerivs(b *testing.B) {
	for _, shape := range benchShapes {
		eng, tr := benchEngine(b, shape.params)
		var edge *phylotree.Node
		for _, e := range tr.Edges() {
			if !e.IsTip() && !e.Back.IsTip() {
				edge = e
				break
			}
		}
		prepareBranch(eng, edge)
		b.Run(shape.name, func(b *testing.B) {
			c := eng.ctx0
			for i := 0; b.Loop(); i++ {
				c.newtonDerivs(0.01 + float64(i&63)*0.003)
			}
			b.ReportMetric(float64(eng.npat), "patterns")
		})
	}
}

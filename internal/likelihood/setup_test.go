package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// setupEngines returns a Γ4 engine and a CAT-25 engine over one alignment in
// which all 16 ambiguity codes occur (code 0, which has no character, is
// written into the data).
func setupEngines(t *testing.T) (gamma, cat *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(3401))
	const alphabet = "ACMGRSVTWYHKDB-"
	rows, names := make([]string, 8), make([]string, 8)
	for i := range rows {
		var b strings.Builder
		for j := 0; j < 200; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		rows[i], names[i] = b.String(), fmt.Sprintf("t%02d", i)
	}
	pat := patternsFrom(t, rows, names)
	pat.Data[2][7] = 0
	m := randomModel(t, rng, 4)
	rates := make([]float64, 25)
	for i := range rates {
		rates[i] = 0.02 + 0.3*float64(i)
	}
	assign := make([]int, pat.NumPatterns())
	for i := range assign {
		assign[i] = rng.Intn(len(rates))
	}
	cm, err := model.NewCATModel(m.GTR, rates, assign, pat.Weights)
	if err != nil {
		t.Fatal(err)
	}
	if gamma, err = NewEngine(pat, m, Config{}); err != nil {
		t.Fatal(err)
	}
	if cat, err = NewEngine(pat, cm, Config{}); err != nil {
		t.Fatal(err)
	}
	if len(gamma.tipCodes) != 16 {
		t.Fatalf("alignment has %d codes, want all 16", len(gamma.tipCodes))
	}
	return gamma, cat
}

// setupLengths are branch lengths log-uniform over the clamp range, and the
// two clamps themselves.
func setupLengths(n int) []float64 {
	rng := rand.New(rand.NewSource(3402))
	zs := []float64{phylotree.MinBranchLength, phylotree.MaxBranchLength}
	lo, hi := math.Log(phylotree.MinBranchLength), math.Log(phylotree.MaxBranchLength)
	for len(zs) < n {
		zs = append(zs, math.Exp(lo+(hi-lo)*rng.Float64()))
	}
	return zs
}

// TestTransitionMatricesBits pins the unrolled matrix build to
// model.GTR.TransitionMatrix bit for bit, for Γ4 and CAT-25, at random
// lengths and at both branch-length clamps.
func TestTransitionMatricesBits(t *testing.T) {
	gamma, cat := setupEngines(t)
	for _, e := range []*Engine{gamma, cat} {
		for _, z := range setupLengths(500) {
			e.transitionMatrices(z, e.scr.pLeft)
			for k, rate := range e.Mod.Cats {
				var want [ns][ns]float64
				e.Mod.GTR.TransitionMatrix(z, rate, &want)
				for i := 0; i < ns; i++ {
					for j := 0; j < ns; j++ {
						if got := e.scr.pLeft[k*ns*ns+i*ns+j]; math.Float64bits(got) != math.Float64bits(want[i][j]) {
							t.Fatalf("%d categories, z=%g, category %d: P[%d][%d] = %.17g, want %.17g",
								e.nmat, z, k, i, j, got, want[i][j])
						}
					}
				}
			}
		}
	}
}

// TestTipTableColumns pins the tip tables: every entry is the bits of the
// product P·tipvec it stands for, and a one-hot code's entries are the
// column of P for its state, read without a multiplication.
func TestTipTableColumns(t *testing.T) {
	gamma, cat := setupEngines(t)
	for _, e := range []*Engine{gamma, cat} {
		for _, z := range setupLengths(40) {
			e.transitionMatrices(z, e.scr.pLeft)
			e.tipProjection(e.scr.pLeft, e.scr.tipPL)
			for code := 0; code < 16; code++ {
				row := e.scr.tipPL[code*e.nmat*ns : (code+1)*e.nmat*ns]
				for k := 0; k < e.nmat; k++ {
					p := e.scr.pLeft[k*ns*ns : (k+1)*ns*ns]
					for i := 0; i < ns; i++ {
						want := 0.0
						for j := 0; j < ns; j++ {
							want += p[i*ns+j] * e.tipVec[code][j]
						}
						got := row[k*ns+i]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%d categories, z=%g, code %d, category %d, state %d: %.17g, product %.17g",
								e.nmat, z, code, k, i, got, want)
						}
						if code&(code-1) == 0 && code != 0 {
							j := 0
							for code>>j != 1 {
								j++
							}
							if got != p[i*ns+j] {
								t.Fatalf("code %d, category %d, state %d: %.17g, column entry %.17g", code, k, i, got, p[i*ns+j])
							}
						}
					}
				}
			}
		}
	}
}

// TestCombineLoneTipEitherSide pins the batched combine, which reads a tip
// child's table row as the product's first factor whichever side the tip is
// on, to the scalar loops: tip–inner, inner–tip and tip–tip newviews give
// the same vector and scale counts, bit for bit, on a caterpillar deep and
// long enough for the scaling to fire, every branch of its own length.
func TestCombineLoneTipEitherSide(t *testing.T) {
	rng := rand.New(rand.NewSource(3403))
	pat := randomPatterns(t, rng, 150, 40)
	m := randomModel(t, rng, 4)
	tr := caterpillarTree(t, pat, 2.5)
	for _, e := range tr.Edges() {
		e.SetZ(1.5 + 2*rng.Float64()) // the two children's matrices differ
	}
	ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := NewEngine(pat, m, Config{Backend: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	var kinds [3]int // tip–inner, inner–tip, tip–tip
	for _, e := range tr.Edges() {
		for _, r := range [...]*phylotree.Node{e, e.Back} {
			if r.IsTip() {
				continue
			}
			qTip, wTip := r.Next.Back.IsTip(), r.Next.Next.Back.IsTip()
			var kind string
			switch {
			case qTip && wTip:
				kind = "tip-tip"
				kinds[2]++
			case qTip:
				kind = "tip-inner"
				kinds[0]++
			case wTip:
				kind = "inner-tip"
				kinds[1]++
			default:
				continue
			}
			ref.NewView(r)
			alt.NewView(r)
			assertVectorsEqual(t, fmt.Sprintf("%s newview at node %d", kind, r.Index), alt, alt.slotVec(r), ref.slotVec(r))
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("newviews tip-inner/inner-tip/tip-tip = %v: a kind is missing", kinds)
	}
	if alt.Meter.ScaleEvents == 0 || alt.Meter.ScaleEvents != ref.Meter.ScaleEvents || alt.Meter.Flops() != ref.Meter.Flops() {
		t.Fatalf("scale events %d (scalar %d), flops %d (scalar %d): want equal and nonzero",
			alt.Meter.ScaleEvents, ref.Meter.ScaleEvents, alt.Meter.Flops(), ref.Meter.Flops())
	}
}

// radiusEdges returns the insertion edges within radius of origin.
func radiusEdges(origin *phylotree.Node, radius int) []*phylotree.Node {
	out, _ := phylotree.RadiusEdgesInto(nil, nil, origin, radius)
	return out
}

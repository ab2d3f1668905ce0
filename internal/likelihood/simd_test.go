package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameBits reports whether a and b are the same float64, or both NaN: which
// NaN's payload a sum of two NaNs keeps depends on the operand order, which
// the compiler picks for a Go loop and nothing in the engine reads.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// hostileFill fills x with values of mixed sign and size, a quarter of them
// ones the kernels meet at their edges: zeros of both signs, subnormals,
// values straddling 2^-256 (the scaling threshold), infinities and NaN.
func hostileFill(rng *rand.Rand, x []float64) {
	for i := range x {
		switch rng.Intn(32) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case 3, 4:
			x[i] = MinLikelihood * (1 + (rng.Float64()-0.5)*1e-6)
		case 5:
			x[i] = math.Inf(1 - 2*rng.Intn(2))
		case 6:
			x[i] = math.NaN()
		case 7:
			x[i] = 1e300 * rng.Float64()
		default:
			x[i] = rng.NormFloat64()
		}
	}
}

// vectorCats are the category counts the vector bodies are checked at: one
// to four, and 25, RAxML's CAT category count — more than any Gamma model
// the programs build; the engine caps none.
var vectorCats = []int{1, 2, 3, 4, 25}

// vectorTiles are the tile lengths they are checked at: a tile's smallest,
// lengths that leave one to three patterns for the Newton pass's scalar
// remainder, and batchTile.
var vectorTiles = []int{1, 3, 4, 5, 31, batchTile}

// TestVectorBodiesMatchGoLoops calls each vector body of the batched
// backend and the Go loop it stands in for on the same operands, at every
// category count and tile length above, on plain and hostile operands, and
// requires the same bits of every output: the bodies round each product and
// sum on their own, in the loop's order, with no fused multiply-add.
func TestVectorBodiesMatchGoLoops(t *testing.T) {
	if simd == nil {
		t.Skip("no vector kernels on this CPU (not amd64, or no AVX): the engine runs the Go loops, which every other test covers")
	}
	rng := rand.New(rand.NewSource(50))
	fill := func(hostile bool, x []float64) {
		if hostile {
			hostileFill(rng, x)
			return
		}
		for i := range x {
			x[i] = rng.Float64()
		}
	}
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: element %d is %x (%g), the Go loop's %x (%g)",
					name, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
	}
	for _, hostile := range []bool{false, true} {
		for _, ncat := range vectorCats {
			stride := ncat * ns
			for _, n := range vectorTiles {
				name := func(kernel string) string {
					return fmt.Sprintf("%s/hostile=%t/ncat=%d/n=%d", kernel, hostile, ncat, n)
				}
				const rows = 40
				p, src, a := make([]float64, ncat*ns*ns), make([]float64, rows*stride), make([]float64, rows*stride)
				fill(hostile, p)
				fill(hostile, src)
				fill(hostile, a)
				idx, aIdx := make([]int32, n), make([]int32, n)
				for j := range idx {
					idx[j], aIdx[j] = int32(rng.Intn(rows)), int32(rng.Intn(rows))
				}

				got, want := make([]float64, n*stride), make([]float64, n*stride)
				simd.project(p, src, idx, got, ncat)
				projectInnerTile(p, src, idx, want, ncat)
				same(name("project"), got, want)

				simd.projectTimes(p, src, idx, a, aIdx, got, ncat)
				projectTimes(p, src, idx, a, aIdx, want, ncat)
				same(name("projectTimes"), got, want)

				var fr [ns]float64
				var v [ns][ns]float64
				fill(hostile, fr[:])
				for i := range v {
					fill(hostile, v[i][:])
				}
				x := src[:n*stride]
				simd.sumP(&fr, &v, x, got)
				sumPRows(&fr, &v, x, want)
				same(name("sumP"), got, want)

				simd.mat4(&v, x, got)
				mat4Rows(&v, x, want)
				same(name("mat4"), got, want)

				// The Newton sums: whole groups of four only, as the pass
				// calls them. Rows of +0 give sums the pass clamps, rows of
				// −0 sums whose sign only a sum begun from +0 gets right.
				groups := n &^ 3
				if groups == 0 {
					continue
				}
				tab := src[:groups*stride]
				for j := 0; j < groups; j += 7 {
					clear(tab[j*stride : (j+1)*stride])
				}
				for j := 3; j < groups; j += 7 {
					for k := range stride {
						tab[j*stride+k] = math.Copysign(0, -1)
					}
				}
				e := make([]float64, 3*stride)
				fill(hostile, e)
				e0, e1, e2 := e[:stride], e[stride:2*stride], e[2*stride:]
				gl, wl := make([]float64, 3*groups), make([]float64, 3*groups)
				simd.newtonDeriv(tab, e0, e1, e2, gl[:groups], gl[groups:2*groups], gl[2*groups:])
				newtonDerivSums(tab, e0, e1, e2, wl[:groups], wl[groups:2*groups], wl[2*groups:])
				same(name("newtonDeriv"), gl, wl)
			}
		}
	}
}

// TestTileRowPastOperandPanics: the vector bodies read a gathered row
// unchecked, so a row past its operand must stop at the Go-side check —
// gatherTile's per row, its identity rows' and projectRows' once — rather
// than be read.
func TestTileRowPastOperandPanics(t *testing.T) {
	const stride = 4 * ns
	e := &Engine{ident: []int32{0, 1, 2, 3, 4, 5, 6, 7}}
	idx := make([]int32, batchTile)
	cases := []struct {
		name string
		call func()
	}{
		{"identity rows", func() {
			gatherTile(e, idx, nil, nil, &vec{lv: make([]float64, 5*stride)}, 2, 6, 5)
		}},
		{"class map", func() {
			gatherTile(e, idx, nil, nil, &vec{cls: []uint16{0, 1, 3}}, 0, 3, 3)
		}},
		{"tip code", func() {
			gatherTile(e, idx, nil, []byte{1, 9}, &vec{}, 0, 2, 8)
		}},
		{"first pattern", func() {
			gatherTile(e, idx, []int32{0, -1}, nil, &vec{}, 0, 2, 8)
		}},
		{"class table rows", func() {
			projectRows(&Engine{ncat: 4, ident: e.ident}, make([]float64, 4*ns*ns), make([]float64, 3*stride), make([]float64, 8*stride), 0, 4)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "tile row") {
					t.Fatalf("recovered %v, want the tile-row check's panic", r)
				}
			}()
			c.call()
		})
	}
	// The check's boundary: the operand's last row is gathered without one.
	if got := gatherTile(e, idx, nil, nil, &vec{cls: []uint16{0, 2}}, 0, 2, 3); got[1] != 2 {
		t.Fatalf("gathered %v", got)
	}
}

// TestPassesMatchScalarOnHeavyWeights drives the derivative, value and
// evaluate passes of every backend against the scalar reference on pattern
// weights 3, 5, 7 and 97, set through SetWeights — the weights of real
// compressed alignments run into the hundreds, and multiplying by 1 or 2,
// all the other tests' weights, is exact, so an epilogue that folded a
// weight in at another point would pass them. d1, d2, the value, the
// log-likelihood and every per-site log must agree bit for bit. The
// alignment's tiles end in a remainder of three patterns the derivative
// pass's vector body leaves to its loop.
func TestPassesMatchScalarOnHeavyWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pat := patternsOfCount(t, rng, 12, 2*batchTile+7)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	weights := make([]int, pat.NumPatterns())
	for i := range weights {
		weights[i] = []int{3, 5, 7, 97}[rng.Intn(4)]
	}
	build := func(backend string) *Engine {
		e, err := NewEngine(pat, m, Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetWeights(weights); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build("scalar")
	edges := tr.Edges()
	for _, name := range Backends() {
		if name == "scalar" {
			continue
		}
		alt := build(name)
		for _, ei := range []int{0, 5, len(edges) - 1} { // tip and inner branches
			if scR, scA := prepareBranch(ref, edges[ei]), prepareBranch(alt, edges[ei]); scR != scA {
				t.Fatalf("%s edge %d: scale constant %v, scalar %v", name, ei, scA, scR)
			}
			stride := ref.ncat * ns
			for _, p := range []int{1, 34, ref.npat - 2} { // sums the pass clamps
				clear(ref.scr.sumTab[p*stride : (p+1)*stride])
				clear(alt.scr.sumTab[p*stride : (p+1)*stride])
			}
			for _, z := range newtonProbePoints {
				d1R, d2R := ref.newtonDerivs(z)
				d1A, d2A := alt.newtonDerivs(z)
				vR, vA := ref.newtonValue(z), alt.newtonValue(z)
				if d1R != d1A || d2R != d2A || vR != vA {
					t.Fatalf("%s edge %d z=%g: (d1, d2, value) = (%.17g, %.17g, %.17g), scalar (%.17g, %.17g, %.17g)",
						name, ei, z, d1A, d2A, vA, d1R, d2R, vR)
				}
			}
			sitesR, err := ref.PerSiteLogL(edges[ei], nil)
			if err != nil {
				t.Fatal(err)
			}
			sitesA, err := alt.PerSiteLogL(edges[ei], nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sitesR {
				if sitesR[i] != sitesA[i] {
					t.Fatalf("%s edge %d: site %d logs %.17g, scalar %.17g", name, ei, i, sitesA[i], sitesR[i])
				}
			}
			llR, err := ref.Evaluate(edges[ei])
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(edges[ei])
			if err != nil {
				t.Fatal(err)
			}
			if llR != llA {
				t.Fatalf("%s edge %d: logL %.17g, scalar %.17g", name, ei, llA, llR)
			}
		}
		if ref.UnderflowSites() == 0 || ref.UnderflowSites() != alt.UnderflowSites() {
			t.Errorf("%s: underflow sites %d, scalar %d (want equal and > 0)", name, alt.UnderflowSites(), ref.UnderflowSites())
		}
		ref.underflowSites = 0
	}
}

package seqsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// pinCase is one simulation whose PHYLIP bytes are pinned. The benchmark's
// three input shapes appear at two seeds each, plus one shape with gaps at
// alpha 0.5 and one with a single rate category. The simulation's rates come
// from the model, so alpha sets DefaultModel's shape (0.8 is DefaultModel
// itself, <= 0 one category); Params.Alpha does not reach Evolve.
type pinCase struct {
	name   string
	p      Params
	alpha  float64
	seed   int64
	sha256 string
}

func pinCases() []pinCase {
	camp := Params42SC()
	camp.Taxa, camp.Sites = 20, 500
	search := Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: 0.8, InvariantFraction: 0.4}
	wide := Params{Taxa: 24, Sites: 10000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1}
	gaps := Params{Taxa: 13, Sites: 700, MeanBranch: 0.2, Alpha: 0.5, GapFraction: 0.08, InvariantFraction: 0.2}
	flat := Params{Taxa: 9, Sites: 400, MeanBranch: 0.15, Alpha: 0}
	return []pinCase{
		{"campaign20", camp, 0.8, 1, "43189f4fa2853bc127c3528a386bb86215146fb705205006e9ccc60e9f73a202"},
		{"campaign20", camp, 0.8, 2, "eeba74ffa5a72e7fa7cd41936fd3202b17f85cb52a716d3b816cb91eb8b6ec6b"},
		{"search20", search, 0.8, 1, "74d3b9aba5e84f7ad47d37373581c0d44c50465a684805b60f7db5d3cacbf261"},
		{"search20", search, 0.8, 2, "4421ec1ed6b8d1a5e73d6c9e379d0884b1636034ef5497083de6510f2fe6d367"},
		{"wide24", wide, 0.8, 1, "c5df9d8a39456073dd410a5777a0078547940b2b003a985c18d68a3beaa1594a"},
		{"wide24", wide, 0.8, 2, "30709ccf8b7aa69b8dae410dd697f0ebf9b7eee3168a03b1d1c7994a156120c3"},
		{"gaps", gaps, 0.5, 3, "86d48094d6840f97bc04498c9b316f31fa833c09e15e76f8b2263fe25a25dc75"},
		{"one-category", flat, 0, 4, "0925391ceb74fa41bc5eb1d1c96393342017221ccdb06f6134f4c8af690abf49"},
	}
}

// TestEvolveBytesPinned holds the simulator's output to hashes recorded
// before Evolve walked a flat edge list: every benchmark input, and with it
// every traced count, depends on these bytes.
func TestEvolveBytesPinned(t *testing.T) {
	for _, c := range pinCases() {
		m, err := DefaultModel().WithAlpha(c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := Generate(c.p, m, rand.New(rand.NewSource(c.seed)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := alignment.WritePhylip(&buf, a); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sha256 {
			t.Errorf("%s seed %d: sha256 %s, pinned %s", c.name, c.seed, got, c.sha256)
		}
	}
}

// evolveRecursive is Evolve as it was before the flat edge list: a closure
// recursion over the rings with a lazily filled (edge, category) matrix map.
// It is the oracle TestEvolveMatchesRecursiveWalk compares against.
func evolveRecursive(tr *phylotree.Tree, m *model.Model, p Params, rng *rand.Rand) (*alignment.Alignment, error) {
	nt := tr.NumTips()
	data := make([][]byte, nt)
	for i := range data {
		data[i] = make([]byte, p.Sites)
	}
	g := m.GTR
	type key struct {
		e *phylotree.Node
		c int
	}
	cache := map[key]*[4][4]float64{}
	pm := func(e *phylotree.Node, c int) *[4][4]float64 {
		k := key{e, c}
		if m0, ok := cache[k]; ok {
			return m0
		}
		var mm [4][4]float64
		g.TransitionMatrix(e.Z, m.Cats[c], &mm)
		cache[k] = &mm
		return &mm
	}
	sample := func(dist []float64) int {
		x := rng.Float64()
		cum := 0.0
		for i, v := range dist {
			cum += v
			if x < cum {
				return i
			}
		}
		return len(dist) - 1
	}
	root := tr.Tips[0].Back
	for site := 0; site < p.Sites; site++ {
		cat := rng.Intn(m.NumCats())
		rootState := sample(g.Freqs[:])
		if p.InvariantFraction > 0 && rng.Float64() < p.InvariantFraction {
			ch := "ACGT"[rootState]
			for i := range data {
				data[i][site] = ch
			}
			continue
		}
		var walk func(e *phylotree.Node, fromState int)
		walk = func(e *phylotree.Node, fromState int) {
			mm := pm(e, cat)
			child := e.Back
			st := sample(mm[fromState][:])
			if child.IsTip() {
				data[child.Index][site] = "ACGT"[st]
				return
			}
			for _, r := range child.Ring() {
				if r != child {
					walk(r, st)
				}
			}
		}
		for _, r := range root.Ring() {
			walk(r, rootState)
		}
	}
	if p.GapFraction > 0 {
		for i := range data {
			for j := range data[i] {
				if rng.Float64() < p.GapFraction {
					data[i][j] = '-'
				}
			}
		}
	}
	seqs := make([]*bio.Sequence, nt)
	for i := range seqs {
		s, err := bio.NewSequence(tr.Taxa[i], string(data[i]))
		if err != nil {
			return nil, err
		}
		seqs[i] = s
	}
	return alignment.New(seqs)
}

// TestEvolveMatchesRecursiveWalk compares Evolve byte for byte with the
// recursive walk on random trees of 3 to 60 taxa, random branch lengths,
// gaps, invariant shares and one or four rate categories, and checks that
// both leave the random stream at the same place.
func TestEvolveMatchesRecursiveWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 60; trial++ {
		nt := 3 + rng.Intn(58)
		names := make([]string, nt)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
		}
		tr, err := phylotree.RandomTopology(names, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Edges() {
			e.SetZ(0.3 * rng.ExpFloat64())
		}
		p := Params{Sites: 1 + rng.Intn(300)}
		if rng.Intn(2) == 0 {
			p.InvariantFraction = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			p.GapFraction = 0.2 * rng.Float64()
		}
		m, err := DefaultModel().WithAlpha([]float64{0, 0.3, 0.8, 2}[rng.Intn(4)])
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Int63()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, err := Evolve(tr, m, p, r1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evolveRecursive(tr, m, p, r2)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range want.Seqs {
			if g := got.Seqs[i]; g.Name != s.Name || !bytes.Equal(g.Codes, s.Codes) {
				t.Fatalf("trial %d (%d taxa, %+v): taxon %d is %s, the recursive walk's %s", trial, nt, p, i, g.String(), s.String())
			}
		}
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("trial %d: the random streams part after the simulation", trial)
		}
	}
}

// BenchmarkEvolve times one simulation at two of the benchmark's input
// shapes: wide24's 24 x 10 000 and campaign20's 20 x 500.
func BenchmarkEvolve(b *testing.B) {
	for _, c := range pinCases() {
		if c.seed != 1 || (c.name != "wide24" && c.name != "campaign20") {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			_, tr, err := Generate(c.p, DefaultModel(), rand.New(rand.NewSource(c.seed)))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(c.seed))
			for b.Loop() {
				if _, err := Evolve(tr, DefaultModel(), c.p, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSampleMatchesLinearSearch: sample over cumulative's thresholds picks
// the state the recursive walk's linear search picks, also on rows with an
// entry that rounded below zero (where the running sums fall) and on draws
// that hit a sum exactly.
func TestSampleMatchesLinearSearch(t *testing.T) {
	linear := func(x float64, row [4]float64) int {
		cum := 0.0
		for i, v := range row {
			cum += v
			if x < cum {
				return i
			}
		}
		return 3
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20000; trial++ {
		var pm [4][4]float64
		for r := range pm {
			for c := range pm[r] {
				pm[r][c] = rng.Float64() / 2
				if rng.Intn(4) == 0 {
					pm[r][c] = -1e-17 * rng.Float64()
				}
			}
		}
		cdf := cumulative(pm)
		for r := range pm {
			xs := []float64{rng.Float64(), 0, math.Nextafter(1, 0)}
			for c, cum := 0, 0.0; c < 4; c++ {
				cum += pm[r][c]
				xs = append(xs, cum, math.Nextafter(cum, 0), math.Nextafter(cum, 1))
			}
			for _, x := range xs {
				if x < 0 || x >= 1 {
					continue
				}
				if got, want := sample(x, &cdf[r]), linear(x, pm[r]); got != want {
					t.Fatalf("row %v, x %v: state %d, linear search %d", pm[r], x, got, want)
				}
			}
		}
	}
}

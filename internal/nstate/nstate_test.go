package nstate

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

func TestAlphabets(t *testing.T) {
	dna := DNA()
	if dna.Size != 4 || dna.All() != 0x0f {
		t.Errorf("DNA size/all: %d %x", dna.Size, dna.All())
	}
	m, err := dna.Encode('r')
	if err != nil || m != 0b0101 {
		t.Errorf("Encode(r) = %04b, %v", m, err)
	}
	if _, err := dna.Encode('Z'); err == nil {
		t.Error("DNA accepted Z")
	}

	aa := Protein()
	if aa.Size != 20 || aa.All() != 1<<20-1 {
		t.Errorf("protein size/all: %d %x", aa.Size, aa.All())
	}
	for i := 0; i < 20; i++ {
		c := aa.StateChar(i)
		m, err := aa.Encode(c)
		if err != nil || m != 1<<uint(i) {
			t.Errorf("Encode(%q) = %x, %v", c, m, err)
		}
	}
	b, _ := aa.Encode('B')
	n, _ := aa.Encode('N')
	d, _ := aa.Encode('D')
	if b != n|d {
		t.Errorf("B = %x, want N|D = %x", b, n|d)
	}
	x, _ := aa.Encode('X')
	if x != aa.All() {
		t.Errorf("X = %x", x)
	}
	if _, err := aa.Encode('1'); err == nil {
		t.Error("protein accepted digit")
	}
}

// TestDNAGenericMatchesOptimizedEngine is the independent cross-check: the
// generic n-state evaluator, which shares no kernel, cache or traversal code
// with the optimized 4-state engine, must agree with it on GTR+Γ DNA
// likelihoods — on every backend, on a fresh tree and on the same tree after
// random SPR edits made with the engine attached, where the engine answers
// from the vectors its invalidation kept and the evaluator from scratch.
func TestDNAGenericMatchesOptimizedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	gen := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{
		Taxa: 9, Sites: 300, MeanBranch: 0.12, Alpha: 0.8,
	}, gen, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)

	// Same model through the generic constructor.
	var exch [4][4]float64
	idx := 0
	order := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, ij := range order {
		exch[ij[0]][ij[1]] = gen.GTR.Rates[idx]
		exch[ij[1]][ij[0]] = gen.GTR.Rates[idx]
		idx++
	}
	rows := make([][]float64, 4)
	for i := range rows {
		rows[i] = exch[i][:]
	}
	nm, err := NewReversible(rows, gen.GTR.Freqs[:], gen.Alpha, len(gen.Cats))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	for _, s := range a.Seqs {
		seqs = append(seqs, s.String())
	}
	ev, err := NewEvaluator(DNA(), nm, a.Names(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	if ev.NumPatterns() != pat.NumPatterns() {
		t.Errorf("pattern counts differ: generic %d vs engine %d", ev.NumPatterns(), pat.NumPatterns())
	}

	for _, backend := range []string{"scalar", "batched"} {
		tr := truth.Clone()
		eng, err := likelihood.NewEngine(pat, gen, likelihood.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachTree(tr)
		agree := func(state string) {
			t.Helper()
			want, err := eng.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.LogL(tr)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s, %s tree: generic logL %.10f != engine %.10f", backend, state, got, want)
			}
		}
		agree("fresh")

		// The same five edits on every backend.
		edits := rand.New(rand.NewSource(702))
		for done := 0; done < 5; {
			edges := tr.Edges()
			p := edges[edits.Intn(len(edges))]
			if p.IsTip() {
				p = p.Back
			}
			ps, err := tr.Prune(p)
			if err != nil {
				continue
			}
			cands := append(radiusEdges(ps.Q, 3), radiusEdges(ps.R, 3)...)
			if len(cands) == 0 {
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := tr.Regraft(ps, cands[edits.Intn(len(cands))]); err != nil {
				t.Fatal(err)
			}
			done++
		}
		agree("edited")
	}
}

func proteinRows(t *testing.T, rng *rand.Rand, nt, ns int) ([]string, []string) {
	t.Helper()
	names := make([]string, nt)
	rows := make([]string, nt)
	base := make([]byte, ns)
	for j := range base {
		base[j] = aaOrder[rng.Intn(20)]
	}
	for i := 0; i < nt; i++ {
		names[i] = string(rune('A' + i))
		row := append([]byte(nil), base...)
		// Mutate ~i*5% of positions for divergence.
		for j := range row {
			if rng.Float64() < 0.05*float64(i) {
				row[j] = aaOrder[rng.Intn(20)]
			}
		}
		rows[i] = string(row)
	}
	return names, rows
}

func TestProteinPoissonBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	names, rows := proteinRows(t, rng, 6, 120)
	mod, err := Poisson(20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(Protein(), mod, names, rows)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := phylotree.RandomTopology(names, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Edges() {
		e.SetZ(0.1)
	}
	ll, err := ev.LogL(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ll >= 0 || math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("logL = %v", ll)
	}
	// Branch invariance: same logL from a different anchor tree copy after
	// taxon reorder.
	perm := append([]string(nil), names...)
	perm[0], perm[3] = perm[3], perm[0]
	if err := tr.AlignTaxa(perm); err != nil {
		t.Fatal(err)
	}
	ll2, err := ev.LogL(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-ll2) > 1e-7*math.Abs(ll) {
		t.Errorf("anchor-dependent logL: %.10f vs %.10f", ll, ll2)
	}
}

func TestProteinLikelihoodPrefersTrueish(t *testing.T) {
	// Sequences built as two diverged clusters: a topology grouping the
	// clusters should beat one mixing them.
	rng := rand.New(rand.NewSource(703))
	base1 := make([]byte, 200)
	base2 := make([]byte, 200)
	for j := range base1 {
		base1[j] = aaOrder[rng.Intn(20)]
		base2[j] = aaOrder[rng.Intn(20)]
	}
	mut := func(b []byte, p float64) string {
		row := append([]byte(nil), b...)
		for j := range row {
			if rng.Float64() < p {
				row[j] = aaOrder[rng.Intn(20)]
			}
		}
		return string(row)
	}
	names := []string{"a1", "a2", "b1", "b2"}
	rows := []string{mut(base1, 0.05), mut(base1, 0.05), mut(base2, 0.05), mut(base2, 0.05)}
	mod, err := Poisson(20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(Protein(), mod, names, rows)
	if err != nil {
		t.Fatal(err)
	}
	good, err := phylotree.ParseNewick("((a1:0.05,a2:0.05):0.5,b1:0.05,b2:0.05);")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := phylotree.ParseNewick("((a1:0.05,b1:0.05):0.5,a2:0.05,b2:0.05);")
	if err != nil {
		t.Fatal(err)
	}
	llGood, err := ev.LogL(good)
	if err != nil {
		t.Fatal(err)
	}
	llBad, err := ev.LogL(bad)
	if err != nil {
		t.Fatal(err)
	}
	if llGood <= llBad {
		t.Errorf("clustered topology (%.2f) not preferred over mixed (%.2f)", llGood, llBad)
	}
}

func TestPoissonTransitionAnalytic(t *testing.T) {
	// Poisson P(t): P_ii = 1/n + (1-1/n) e^{-nt/(n-1)}, P_ij = 1/n (1 - e^{...}).
	for _, n := range []int{4, 20} {
		mod, err := Poisson(n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, n*n)
		for _, tt := range []float64{0.05, 0.3, 1.5} {
			mod.Transition(tt, 1, p)
			e := math.Exp(-float64(n) * tt / float64(n-1))
			wantDiag := 1.0/float64(n) + (1-1.0/float64(n))*e
			wantOff := (1.0 / float64(n)) * (1 - e)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := wantOff
					if i == j {
						want = wantDiag
					}
					if math.Abs(p[i*n+j]-want) > 1e-9 {
						t.Fatalf("n=%d t=%g: P[%d][%d] = %.12f, want %.12f", n, tt, i, j, p[i*n+j], want)
					}
				}
			}
		}
	}
}

func TestNewReversibleValidation(t *testing.T) {
	if _, err := Poisson(1, 0, 1); err == nil {
		t.Error("1-state model accepted")
	}
	bad := [][]float64{{0, 1}, {2, 0}}
	if _, err := NewReversible(bad, []float64{0.5, 0.5}, 0, 1); err == nil {
		t.Error("asymmetric exchangeabilities accepted")
	}
	if _, err := NewReversible([][]float64{{0, 1}, {1, 0}}, []float64{0.9, 0.2}, 0, 1); err == nil {
		t.Error("non-normalized frequencies accepted")
	}
	if _, err := NewReversible([][]float64{{0, -1}, {-1, 0}}, []float64{0.5, 0.5}, 0, 1); err == nil {
		t.Error("negative exchangeability accepted")
	}
}

func TestEvaluatorValidation(t *testing.T) {
	mod, err := Poisson(20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(Protein(), mod, []string{"a", "b"}, []string{"AC", "AC"}); err == nil {
		t.Error("2 taxa accepted")
	}
	if _, err := NewEvaluator(Protein(), mod, []string{"a", "b", "c"}, []string{"AC", "AC", "A"}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := NewEvaluator(Protein(), mod, []string{"a", "a", "c"}, []string{"AC", "AC", "AC"}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewEvaluator(DNA(), mod, []string{"a", "b", "c"}, []string{"AC", "AC", "AC"}); err == nil {
		t.Error("alphabet/model size mismatch accepted")
	}
	if _, err := NewEvaluator(Protein(), mod, []string{"a", "b", "c"}, []string{"A1", "AC", "AC"}); err == nil {
		t.Error("invalid character accepted")
	}
	ev, err := NewEvaluator(Protein(), mod, []string{"a", "b", "c"}, []string{"ACDE", "ACDF", "ACDG"})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := phylotree.ParseNewick("(x,y,z);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.LogL(wrong); err == nil {
		t.Error("foreign taxa accepted")
	}
}

// radiusEdges returns the insertion edges within radius of origin.
func radiusEdges(origin *phylotree.Node, radius int) []*phylotree.Node {
	out, _ := phylotree.RadiusEdgesInto(nil, nil, origin, radius)
	return out
}

package parsimony

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/phylotree"
)

func pats(t *testing.T, rows map[string]string) *alignment.Patterns {
	t.Helper()
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	var seqs []*bio.Sequence
	for _, n := range names {
		s, err := bio.NewSequence(n, rows[n])
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	a, err := alignment.New(seqs)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a)
}

func TestScoreHandComputed(t *testing.T) {
	// Four taxa, topology ((a,b),(c,d)) as a trifurcation from parsing.
	tr, err := phylotree.ParseNewick("((a:1,b:1):1,c:1,d:1);")
	if err != nil {
		t.Fatal(err)
	}
	p := pats(t, map[string]string{
		// Site 1: a=A b=A c=C d=C -> 1 change on ((a,b),(c,d)).
		// Site 2: all same          -> 0 changes.
		// Site 3: a=A b=C c=A d=C -> 2 changes on this topology.
		"a": "AGA",
		"b": "AGC",
		"c": "CGA",
		"d": "CGC",
	})
	if err := tr.AlignTaxa(p.Names); err != nil {
		t.Fatal(err)
	}
	got := mustScore(t, tr, p)
	if got != 3 {
		t.Errorf("Score = %d, want 3", got)
	}
}

func TestScoreConstantAlignment(t *testing.T) {
	p := pats(t, map[string]string{
		"a": "AAAA", "b": "AAAA", "c": "AAAA", "d": "AAAA", "e": "AAAA",
	})
	rng := rand.New(rand.NewSource(1))
	tr, err := phylotree.RandomTopology(p.Names, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := mustScore(t, tr, p)
	if got != 0 {
		t.Errorf("constant alignment score = %d, want 0", got)
	}
}

func TestScoreGapsAreFree(t *testing.T) {
	// Gaps encode as "all states possible": they never force a union event.
	p := pats(t, map[string]string{
		"a": "A---", "b": "A---", "c": "ANNN", "d": "A???",
	})
	rng := rand.New(rand.NewSource(2))
	tr, err := phylotree.RandomTopology(p.Names, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := mustScore(t, tr, p)
	if got != 0 {
		t.Errorf("gap columns scored %d, want 0", got)
	}
}

func TestScoreTopologyInvariantToRootChoice(t *testing.T) {
	// Score must not depend on which tip anchors the walk; exercise via
	// identical trees compared across all tips using a tiny wrapper.
	rows := map[string]string{}
	rng := rand.New(rand.NewSource(3))
	bases := "ACGT"
	for i := 0; i < 8; i++ {
		var b strings.Builder
		for j := 0; j < 30; j++ {
			b.WriteByte(bases[rng.Intn(4)])
		}
		rows[fmt.Sprintf("t%d", i)] = b.String()
	}
	p := pats(t, rows)
	tr, err := phylotree.RandomTopology(p.Names, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := newScorer(p)
	ref := s.score(tr.Tips[0])
	for i := 1; i < 8; i++ {
		if got := s.score(tr.Tips[i]); got != ref {
			t.Errorf("score from tip %d = %d, want %d", i, got, ref)
		}
	}
}

func TestScoreWeightsMatchExpansion(t *testing.T) {
	// Pattern compression must not change the score: duplicate columns.
	base := map[string]string{
		"a": "ACGT", "b": "AGGT", "c": "ACTT", "d": "GCGA",
	}
	dup := map[string]string{}
	for k, v := range base {
		dup[k] = v + v + v // every column three times
	}
	p1 := pats(t, base)
	p3 := pats(t, dup)
	rng := rand.New(rand.NewSource(4))
	tr, err := phylotree.RandomTopology(p1.Names, rng)
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustScore(t, tr, p1)
	s3 := mustScore(t, tr, p3)
	if s3 != 3*s1 {
		t.Errorf("triplicated score = %d, want %d", s3, 3*s1)
	}
}

func TestBuildStepwiseValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := map[string]string{}
		bases := "ACGT"
		n := 5 + rng.Intn(15)
		for i := 0; i < n; i++ {
			var b strings.Builder
			for j := 0; j < 40; j++ {
				b.WriteByte(bases[rng.Intn(4)])
			}
			rows[fmt.Sprintf("t%02d", i)] = b.String()
		}
		names := make([]string, 0, n)
		for k := range rows {
			names = append(names, k)
		}
		var seqs []*bio.Sequence
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				if names[j] < names[i] {
					names[i], names[j] = names[j], names[i]
				}
			}
		}
		for _, nm := range names {
			s, _ := bio.NewSequence(nm, rows[nm])
			seqs = append(seqs, s)
		}
		a, _ := alignment.New(seqs)
		p := alignment.Compress(a)
		tr, err := BuildStepwise(p, rng)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuildStepwiseBeatsRandom(t *testing.T) {
	// Stepwise-addition parsimony trees should, on average, score clearly
	// better than uniform random topologies on tree-like data.
	rng := rand.New(rand.NewSource(10))
	// Generate tree-like data: two clades with distinct composition.
	rows := map[string]string{}
	for i := 0; i < 12; i++ {
		var b strings.Builder
		for j := 0; j < 60; j++ {
			var c byte
			if i < 6 {
				c = "AACG"[rng.Intn(4)]
			} else {
				c = "TTCG"[rng.Intn(4)]
			}
			b.WriteByte(c)
		}
		rows[fmt.Sprintf("t%02d", i)] = b.String()
	}
	p := pats(t, rows)

	swTotal, rndTotal := 0, 0
	for rep := 0; rep < 5; rep++ {
		sw, err := BuildStepwise(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		s1 := mustScore(t, sw, p)
		rd, err := phylotree.RandomTopology(p.Names, rng)
		if err != nil {
			t.Fatal(err)
		}
		s2 := mustScore(t, rd, p)
		swTotal += s1
		rndTotal += s2
	}
	if swTotal >= rndTotal {
		t.Errorf("stepwise total %d not better than random total %d", swTotal, rndTotal)
	}
}

// TestBuildStepwiseTooFewTaxa: two taxa make no unrooted tree and are
// refused; three make the triplet, with nothing left to insert.
func TestBuildStepwiseTooFewTaxa(t *testing.T) {
	if _, err := BuildStepwise(pats(t, map[string]string{"a": "ACGT", "b": "ACGA"}), rand.New(rand.NewSource(1))); err == nil {
		t.Error("two taxa accepted")
	}
	tr, err := BuildStepwise(pats(t, map[string]string{"a": "ACGT", "b": "ACGA", "c": "ACTA"}), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil || !tr.Complete() || len(tr.Edges()) != 3 {
		t.Errorf("three taxa gave %s (%v)", tr.Newick(), err)
	}
}

func TestBuildStepwiseDeterministic(t *testing.T) {
	rows := map[string]string{
		"a": "ACGTACGTAA", "b": "ACGTACGTCC", "c": "AGGTACGTAA",
		"d": "ACTTACGTGG", "e": "ACGAACGTTT", "f": "ACGTAAGTAA",
	}
	p := pats(t, rows)
	t1, err := BuildStepwise(p, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := BuildStepwise(p, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Newick() != t2.Newick() {
		t.Error("same seed produced different trees")
	}
}

// naiveScorer is the byte-per-pattern Fitch scorer BuildStepwise ran on
// before the bit-sliced kernel: the oracle of the tests below.
type naiveScorer struct {
	pat   *alignment.Patterns
	state [][]byte
}

func (s *naiveScorer) score(root *phylotree.Node) int {
	score := 0
	a := s.states(root, &score)
	b := s.states(root.Back, &score)
	for p, w := range s.pat.Weights {
		if a[p]&b[p] == 0 {
			score += w
		}
	}
	return score
}

func (s *naiveScorer) states(nd *phylotree.Node, score *int) []byte {
	if nd.IsTip() {
		return s.pat.Data[nd.Index]
	}
	a := s.states(nd.Next.Back, score)
	b := s.states(nd.Next.Next.Back, score)
	buf := s.state[nd.Index]
	if buf == nil {
		buf = make([]byte, s.pat.NumPatterns())
		s.state[nd.Index] = buf
	}
	for p, w := range s.pat.Weights {
		if inter := a[p] & b[p]; inter != 0 {
			buf[p] = inter
		} else {
			buf[p] = a[p] | b[p]
			*score += w
		}
	}
	return buf
}

// naiveAdd is one step of the O(n³·m) stepwise addition: insert tip ti on
// every branch, re-score the whole tree, remove it again, then insert it on
// the best branch (ties by reservoir sampling in tr.Edges() order).
func naiveAdd(tr *phylotree.Tree, pat *alignment.Patterns, ti int, rng *rand.Rand) error {
	s := &naiveScorer{pat: pat, state: make([][]byte, 2*pat.NumTaxa-2)}
	edges := tr.Edges()
	best, bestScore, nBest := -1, 0, 0
	for k, e := range edges {
		if err := tr.InsertTip(ti, e); err != nil {
			return err
		}
		sc := s.score(tr.Tips[ti])
		if err := tr.RemoveTip(ti); err != nil {
			return err
		}
		switch {
		case best == -1 || sc < bestScore:
			best, bestScore, nBest = k, sc, 1
		case sc == bestScore:
			nBest++
			if rng.Intn(nBest) == 0 {
				best = k
			}
		}
	}
	return tr.InsertTip(ti, edges[best])
}

// naiveStepwise is BuildStepwise as it was before the bit-sliced kernel.
func naiveStepwise(pat *alignment.Patterns, rng *rand.Rand) (*phylotree.Tree, error) {
	tr, err := phylotree.NewTree(pat.Names)
	if err != nil {
		return nil, err
	}
	order := rng.Perm(pat.NumTaxa)
	if err := tr.InitTriplet(order[0], order[1], order[2]); err != nil {
		return nil, err
	}
	for _, ti := range order[3:] {
		if err := naiveAdd(tr, pat, ti, rng); err != nil {
			return nil, err
		}
	}
	return tr, tr.Validate()
}

// sameTree reports how two trees differ: Newick text, then every branch
// length to the bit (Newick prints six decimals).
func sameTree(a, b *phylotree.Tree) error {
	if na, nb := a.Newick(), b.Newick(); na != nb {
		return fmt.Errorf("newick differs:\n%s\n%s", na, nb)
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if math.Float64bits(ea[i].Z) != math.Float64bits(eb[i].Z) {
			return fmt.Errorf("branch %d: length %g vs %g", i, ea[i].Z, eb[i].Z)
		}
	}
	return nil
}

// randomPatterns draws n taxa × m patterns directly (duplicate columns
// allowed): per column a base state that each taxon keeps with probability
// 0.6, otherwise a random base, the gap, or any of the fifteen ambiguity
// masks. With zeros, weights are bootstrap-like draws in [0, 3].
func randomPatterns(rng *rand.Rand, n, m int, zeros bool) *alignment.Patterns {
	p := &alignment.Patterns{NumTaxa: n, Names: make([]string, n), Data: make([][]byte, n), Weights: make([]int, m)}
	for i := range p.Names {
		p.Names[i] = fmt.Sprintf("t%02d", i)
		p.Data[i] = make([]byte, m)
	}
	for j := 0; j < m; j++ {
		base := byte(1) << rng.Intn(4)
		for i := 0; i < n; i++ {
			switch r := rng.Intn(20); {
			case r < 12:
				p.Data[i][j] = base
			case r < 16:
				p.Data[i][j] = byte(1) << rng.Intn(4)
			case r < 17:
				p.Data[i][j] = bio.Gap
			default:
				p.Data[i][j] = byte(1 + rng.Intn(15))
			}
		}
		p.Weights[j] = 1
		if zeros {
			p.Weights[j] = rng.Intn(4)
		}
		p.NumSites += p.Weights[j]
	}
	return p
}

func load42SC(t testing.TB) *alignment.Patterns {
	t.Helper()
	f, err := os.Open("../core/testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a)
}

// checkMatchesNaive builds the start tree both ways from the same seed.
func checkMatchesNaive(t *testing.T, name string, pat *alignment.Patterns, seed int64) {
	t.Helper()
	rngWant, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want, err := naiveStepwise(pat, rngWant)
	if err != nil {
		t.Fatalf("%s: naive: %v", name, err)
	}
	got, err := BuildStepwise(pat, rngGot)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sameTree(got, want); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	// The same draws were made: the streams continue in step.
	if rngGot.Int63() != rngWant.Int63() {
		t.Fatalf("%s seed %d: rng streams diverged", name, seed)
	}
}

// TestStepwiseMatchesNaive: the incremental bit-sliced stepwise addition
// builds the tree the whole-tree re-scoring loop built, to the branch-length
// bit, and leaves the rng where it did.
func TestStepwiseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for c := 0; c < 40; c++ {
		n := 3 + rng.Intn(58)
		m := 1 + rng.Intn(150)
		zeros := c%2 == 1
		checkMatchesNaive(t, fmt.Sprintf("random %dx%d zeros=%v", n, m, zeros), randomPatterns(rng, n, m, zeros), rng.Int63())
	}
	// Around word boundaries, original and bootstrap weights.
	for _, m := range []int{63, 64, 65, 128} {
		for _, zeros := range []bool{false, true} {
			checkMatchesNaive(t, fmt.Sprintf("%d patterns zeros=%v", m, zeros), randomPatterns(rng, 17, m, zeros), rng.Int63())
		}
	}
	p42 := load42SC(t)
	checkMatchesNaive(t, "42_SC", p42, 7)
	checkMatchesNaive(t, "42_SC replicate", alignment.BootstrapReplicate(p42, rand.New(rand.NewSource(8))), 9)
	// Every pattern dropped — weight 0 or a state common to all taxa — so
	// every candidate ties and only the rng draws decide.
	none := randomPatterns(rng, 30, 40, false)
	for j := range none.Weights {
		if j%2 == 0 {
			none.Weights[j] = 0
			continue
		}
		for i := range none.Data {
			none.Data[i][j] |= bio.BitG
		}
	}
	if bs := newBitSets(none); bs.nw != 0 {
		t.Fatalf("all-dropped alignment kept %d words", bs.nw)
	}
	for seed := int64(0); seed < 5; seed++ {
		checkMatchesNaive(t, "all dropped", none, seed)
	}
}

// TestStepwiseShortBranchRule: each candidate was once inserted and removed
// again, which turned a branch shorter than two minimum halves into exactly
// two; the incremental step keeps that, so the start tree's lengths match.
func TestStepwiseShortBranchRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pat := randomPatterns(rng, 12, 80, true)
	v := make([]int, 12)
	for i := 3; i < len(v); i++ {
		v[i] = rng.Intn(2*i - 3)
	}
	tr, err := phylotree.TreeFromPhylo2Vec(pat.Names, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveTip(11); err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Edges() {
		e.SetZ([]float64{phylotree.MinBranchLength, 1.5e-8, 2e-8, 3e-8, 0.05}[i%5])
	}
	want := tr.Clone()
	if err := naiveAdd(want, pat, 11, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertTip(11, newScorer(pat).stepwiseBest(tr, 11, rand.New(rand.NewSource(4)))); err != nil {
		t.Fatal(err)
	}
	if err := sameTree(tr, want); err != nil {
		t.Fatal(err)
	}
}

// FuzzStepwiseMatchesNaive decodes bytes into taxa, columns, weights and a
// seed and requires the naive loop's tree.
func FuzzStepwiseMatchesNaive(f *testing.F) {
	f.Add([]byte{5, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{30, 64, 0, 0, 255, 1, 16, 3, 9, 0, 15, 15, 2})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		n := 3 + int(at(0))%40
		m := int(at(1)) % 140
		p := &alignment.Patterns{NumTaxa: n, Names: make([]string, n), Data: make([][]byte, n), Weights: make([]int, m)}
		k := 3
		for i := range p.Names {
			p.Names[i] = fmt.Sprintf("t%02d", i)
			p.Data[i] = make([]byte, m)
			for j := range p.Data[i] {
				// Half the bytes copy the column's first state, so columns
				// are rarely all-distinct noise.
				b := at(k)
				k++
				if i > 0 && b&0x10 == 0 {
					p.Data[i][j] = p.Data[0][j]
				} else {
					p.Data[i][j] = 1 + b%15
				}
			}
		}
		for j := range p.Weights {
			p.Weights[j] = int(at(k)) % 4
			k++
			p.NumSites += p.Weights[j]
		}
		checkMatchesNaive(t, "fuzz", p, int64(at(2)))
	})
}

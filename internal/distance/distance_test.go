package distance

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// pathDistances computes the additive (path-length) distance matrix of a
// tree — the input on which NJ is guaranteed to recover the topology.
func pathDistances(tr *phylotree.Tree) *Matrix {
	n := tr.NumTips()
	m := NewMatrix(tr.Taxa)
	// BFS from each tip over the ring structure.
	for i := 0; i < n; i++ {
		dist := map[*phylotree.Node]float64{}
		var walk func(nd *phylotree.Node, acc float64)
		walk = func(nd *phylotree.Node, acc float64) {
			tgt := nd.Back
			acc += nd.Z
			if tgt.IsTip() {
				m.D[i][tgt.Index] = acc
				return
			}
			if _, seen := dist[tgt]; seen {
				return
			}
			dist[tgt] = acc
			for _, r := range tgt.Ring() {
				if r != tgt {
					walk(r, acc)
				}
			}
		}
		walk(tr.Tips[i], 0)
	}
	// Symmetrize exactly.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.D[i][j] + m.D[j][i]) / 2
			m.Set(i, j, v)
		}
	}
	return m
}

func TestNJRecoversAdditiveTree(t *testing.T) {
	// NJ is exact on additive distances: feed it the path metric of a
	// random tree and demand RF = 0.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		names := make([]string, 12)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		truth, err := phylotree.RandomTopology(names, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range truth.Edges() {
			e.SetZ(0.05 + 0.4*rng.Float64())
		}
		m := pathDistances(truth)
		nj, err := NeighborJoining(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := nj.AlignTaxa(truth.Taxa); err != nil {
			t.Fatal(err)
		}
		rf, err := phylotree.RobinsonFoulds(truth, nj)
		if err != nil {
			t.Fatal(err)
		}
		if rf != 0 {
			t.Errorf("seed %d: NJ on additive distances gave RF %d", seed, rf)
		}
		// Branch lengths are recovered too (additive metric): the NJ tree's
		// path lengths are the input distances.
		got := pathDistances(nj)
		for i := range got.D {
			for j := range got.D[i] {
				if d := math.Abs(got.D[i][j] - m.D[i][j]); d > 1e-6 {
					t.Fatalf("seed %d: path %d-%d is %g in the NJ tree, %g in the input", seed, i, j, got.D[i][j], m.D[i][j])
				}
			}
		}
	}
}

func TestJukesCantorBasics(t *testing.T) {
	mk := func(rows ...string) *alignment.Patterns {
		var seqs []*bio.Sequence
		for i, r := range rows {
			s, err := bio.NewSequence(string(rune('a'+i)), r)
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
	// Identical sequences: distance 0.
	p := mk("ACGTACGT", "ACGTACGT", "AAAAAAAA")
	m, err := JukesCantor(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.D[0][1] != 0 {
		t.Errorf("identical distance = %v", m.D[0][1])
	}
	// 25% mismatch: d = -3/4 ln(1 - 1/3).
	p = mk("ACGTACGT", "ACGTACGA", "AAAAAAAA")
	m, err = JukesCantor(p)
	if err != nil {
		t.Fatal(err)
	}
	want := -0.75 * math.Log(1-4.0/3.0*0.125)
	if math.Abs(m.D[0][1]-want) > 1e-12 {
		t.Errorf("d = %v, want %v", m.D[0][1], want)
	}
	// Saturated pair capped.
	p = mk("AAAAAAAA", "CCCCCCCC", "GGGGGGGG")
	m, err = JukesCantor(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.D[0][1] != maxJCDistance {
		t.Errorf("saturated distance = %v", m.D[0][1])
	}
	// Gap-only overlap capped, not NaN.
	p = mk("----ACGT", "ACGT----", "ACGTACGT")
	m, err = JukesCantor(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.D[0][1] != maxJCDistance {
		t.Errorf("no-overlap distance = %v", m.D[0][1])
	}
	if _, err := JukesCantor(nil); err == nil {
		t.Error("nil patterns accepted")
	}
}

func TestNJOnSimulatedData(t *testing.T) {
	// End to end: simulate, estimate JC distances, build NJ — topology
	// should be close to the truth on high-signal data.
	rng := rand.New(rand.NewSource(611))
	m := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{
		Taxa: 12, Sites: 2000, MeanBranch: 0.08,
	}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	dm, err := JukesCantor(pat)
	if err != nil {
		t.Fatal(err)
	}
	nj, err := NeighborJoining(dm)
	if err != nil {
		t.Fatal(err)
	}
	if err := truth.AlignTaxa(pat.Names); err != nil {
		t.Fatal(err)
	}
	if err := nj.AlignTaxa(pat.Names); err != nil {
		t.Fatal(err)
	}
	rf, err := phylotree.RobinsonFoulds(truth, nj)
	if err != nil {
		t.Fatal(err)
	}
	// JC distances on GTR+Γ data are mis-specified and some simulated
	// branches are near zero, so allow a few wrong splits (max RF is 18).
	if rf > 8 {
		t.Errorf("NJ on simulated data: RF %d", rf)
	}
}

func TestNJValidation(t *testing.T) {
	m := NewMatrix([]string{"a", "b"})
	if _, err := NeighborJoining(m); err == nil {
		t.Error("2-taxon NJ accepted")
	}
}

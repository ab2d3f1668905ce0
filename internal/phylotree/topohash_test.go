package phylotree

import (
	"math/rand"
	"testing"
)

// TestTreeHashHandRolledEquivalents parses several Newick renderings of the
// same 6-taxon unrooted topology — rotated around a different anchor, with
// children swapped, with sibling order reversed — and demands one hash.
// A genuinely different topology must hash differently.
func TestTreeHashHandRolledEquivalents(t *testing.T) {
	taxa := []string{"A", "B", "C", "D", "E", "F"}
	same := []string{
		"((A,B),(C,D),(E,F));",
		"((B,A),(D,C),(F,E));",
		"((C,D),(A,B),(E,F));",
		"((E,F),(C,D),(B,A));",
		"(A,B,((C,D),(E,F)));",
		"(C,((A,B),(E,F)),D);",
	}
	h := NewTopoHasher(len(taxa))
	var want TopoHash
	for i, nw := range same {
		tr, err := ParseNewick(nw)
		if err != nil {
			t.Fatalf("%q: %v", nw, err)
		}
		if err := tr.AlignTaxa(taxa); err != nil {
			t.Fatalf("%q: %v", nw, err)
		}
		got, err := h.TreeHash(tr)
		if err != nil {
			t.Fatalf("%q: %v", nw, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%q hashes to %v, want %v", nw, got, want)
		}
	}
	other, err := ParseNewick("((A,C),(B,D),(E,F));")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AlignTaxa(taxa); err != nil {
		t.Fatal(err)
	}
	got, err := h.TreeHash(other)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("distinct topology produced the same hash")
	}
}

// TestTreeHashMatchesPhylo2Vec checks on random tree pairs that hash
// equality coincides with phylo2vec vector equality — both must be exact
// topology invariants over the same taxon set.
func TestTreeHashMatchesPhylo2Vec(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	taxa := randomTaxa(14)
	h := NewTopoHasher(len(taxa))
	for rep := 0; rep < 40; rep++ {
		a, err := RandomTopology(taxa, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomTopology(taxa, rng)
		if err != nil {
			t.Fatal(err)
		}
		ha, err := h.TreeHash(a)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := h.TreeHash(b)
		if err != nil {
			t.Fatal(err)
		}
		va, err := a.Phylo2Vec()
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Phylo2Vec()
		if err != nil {
			t.Fatal(err)
		}
		if (ha == hb) != equalInts(va, vb) {
			t.Fatalf("hash equality %v but vector equality %v", ha == hb, equalInts(va, vb))
		}
	}
}

// TestTreeHashRepresentationInvariance reparses random topologies from
// Newick (different anchor, ring order, internal indices) and requires the
// identical fingerprint. Branch lengths are also perturbed: they must not
// matter.
func TestTreeHashRepresentationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	taxa := randomTaxa(23)
	h := NewTopoHasher(len(taxa))
	for rep := 0; rep < 20; rep++ {
		tr, err := RandomTopology(taxa, rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := h.TreeHash(tr)
		if err != nil {
			t.Fatal(err)
		}
		re, err := ParseNewick(tr.Newick())
		if err != nil {
			t.Fatal(err)
		}
		if err := re.AlignTaxa(taxa); err != nil {
			t.Fatal(err)
		}
		for _, e := range re.Edges() {
			e.SetZ(rng.Float64())
		}
		got, err := h.TreeHash(re)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reparse changed hash: %v vs %v", got, want)
		}
	}
}

package phylotree

import (
	"math/rand"
	"strings"
	"testing"
)

func parseAligned(t *testing.T, s string, taxa []string) *Tree {
	t.Helper()
	tr, err := ParseNewick(s)
	if err != nil {
		t.Fatal(err)
	}
	if taxa != nil {
		if err := tr.AlignTaxa(taxa); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestConsensusIdenticalTrees(t *testing.T) {
	base := parseAligned(t, "((a:1,b:1):1,(c:1,d:1):1,e:1);", nil)
	trees := []*Tree{base, base.Clone(), base.Clone()}
	cons, err := MajorityRuleConsensusWeighted(trees, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 5 taxa -> 2 non-trivial bipartitions, all at 100% support.
	if got := cons.CountClades(); got != 2 {
		t.Errorf("clades = %d, want 2\n%s", got, cons.Newick())
	}
	var check func(c *ConsensusNode)
	check = func(c *ConsensusNode) {
		if !c.IsLeaf() && c.Support != 1 {
			t.Errorf("clade support = %v, want 1", c.Support)
		}
		for _, ch := range c.Children {
			check(ch)
		}
	}
	check(cons)
	if !strings.HasSuffix(cons.Newick(), ";") {
		t.Error("newick not terminated")
	}
}

func TestConsensusMajority(t *testing.T) {
	taxa := []string{"a", "b", "c", "d", "e"}
	// Two trees support (a,b); one supports (a,c): the consensus keeps only
	// the majority clade.
	t1 := parseAligned(t, "((a:1,b:1):1,(c:1,d:1):1,e:1);", taxa)
	t2 := parseAligned(t, "((a:1,b:1):1,(d:1,e:1):1,c:1);", taxa)
	t3 := parseAligned(t, "((a:1,c:1):1,(b:1,d:1):1,e:1);", taxa)
	cons, err := MajorityRuleConsensusWeighted([]*Tree{t1, t2, t3}, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Splits canonicalize away from tip 0 ("a"), so the a|b split renders
	// as its complement clade (c,d,e).
	nw := cons.Newick()
	if !strings.Contains(nw, "(c,d,e)0.67") {
		t.Errorf("majority split ab|cde missing or mis-supported: %s", nw)
	}
	if strings.Contains(nw, "(b,d,e)") {
		t.Errorf("minority split ac|bde survived: %s", nw)
	}
}

func TestConsensusAllTaxaPresent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	taxa := names(10)
	var trees []*Tree
	for i := 0; i < 7; i++ {
		tr, err := RandomTopology(taxa, rng)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	cons, err := MajorityRuleConsensusWeighted(trees, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []string
	var walk func(c *ConsensusNode)
	walk = func(c *ConsensusNode) {
		if c.IsLeaf() {
			leaves = append(leaves, c.Name)
			return
		}
		if c.Support <= 0.5 && c != cons {
			t.Errorf("clade below threshold in consensus: %v", c.Support)
		}
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	walk(cons)
	if len(leaves) != 10 {
		t.Fatalf("consensus has %d leaves: %v", len(leaves), leaves)
	}
	seen := map[string]bool{}
	for _, l := range leaves {
		if seen[l] {
			t.Errorf("duplicate leaf %q", l)
		}
		seen[l] = true
	}
}

func TestConsensusErrors(t *testing.T) {
	if _, err := MajorityRuleConsensusWeighted(nil, nil, 0.5); err == nil {
		t.Error("empty tree set accepted")
	}
	a := parseAligned(t, "(a,b,(c,d));", nil)
	if _, err := MajorityRuleConsensusWeighted([]*Tree{a}, nil, 0.4); err == nil {
		t.Error("sub-majority threshold accepted")
	}
	if _, err := MajorityRuleConsensusWeighted([]*Tree{a}, nil, 1.0); err == nil {
		t.Error("threshold 1.0 accepted")
	}
	b := parseAligned(t, "(a,b,(c,e));", nil)
	if _, err := MajorityRuleConsensusWeighted([]*Tree{a, b}, nil, 0.5); err == nil {
		t.Error("mismatched taxon sets accepted")
	}
}

func TestConsensusStrictThreshold(t *testing.T) {
	taxa := []string{"a", "b", "c", "d", "e", "f"}
	// Clade (a,b) in 2/3 trees; ((a,b),c) in 2/3; (e,f) in 3/3.
	t1 := parseAligned(t, "(((a,b),c),(e,f),d);", taxa)
	t2 := parseAligned(t, "(((a,b),c),(e,f),d);", taxa)
	t3 := parseAligned(t, "(((a,c),b),(e,f),d);", taxa)
	trees := []*Tree{t1, t2, t3}

	// At 0.5: both (a,b) and (e,f) survive.
	c1, err := MajorityRuleConsensusWeighted(trees, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.CountClades(); got != 3 {
		t.Errorf("0.5-consensus clades = %d, want 3: %s", got, c1.Newick())
	}
	// At 0.9: the unanimous splits survive — ef|abcd and abc|def (the
	// latter present in all three trees despite the ab/ac disagreement).
	c2, err := MajorityRuleConsensusWeighted(trees, nil, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.CountClades(); got != 2 {
		t.Errorf("0.9-consensus clades = %d, want 2: %s", got, c2.Newick())
	}
	if !strings.Contains(c2.Newick(), "(e,f)1.00") && !strings.Contains(c2.Newick(), "(f,e)1.00") {
		t.Errorf("unanimous clade missing: %s", c2.Newick())
	}
}

package phylotree

import (
	"reflect"
	"testing"
)

// dedupTree parses a newick string and aligns it to the shared taxon order,
// the contract DedupTopologies and the weighted aggregators require.
func dedupTree(t *testing.T, nw string, taxa []string) *Tree {
	t.Helper()
	tr, err := ParseNewick(nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AlignTaxa(taxa); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDedupTopologies groups hand-built duplicates: three renderings of one
// topology (rotated children, reordered subtrees, decorated with branch
// lengths) must collapse to one representative — the first — while two
// genuinely different topologies stay separate, preserving input order.
func TestDedupTopologies(t *testing.T) {
	taxa := []string{"A", "B", "C", "D", "E", "F"}
	dup1 := dedupTree(t, "((A,B),(C,D),(E,F));", taxa)
	other := dedupTree(t, "((A,C),(B,D),(E,F));", taxa)
	dup2 := dedupTree(t, "((B,A),(D,C),(F,E));", taxa)
	dup3 := dedupTree(t, "((E,F),(A:0.1,B:0.2):0.3,(C:0.4,D:0.5):0.6);", taxa)
	third := dedupTree(t, "((A,E),(C,D),(B,F));", taxa)

	uniq, weights, err := DedupTopologies([]*Tree{dup1, other, dup2, dup3, third})
	if err != nil {
		t.Fatal(err)
	}
	if len(uniq) != 3 {
		t.Fatalf("distinct topologies = %d, want 3", len(uniq))
	}
	if uniq[0] != dup1 || uniq[1] != other || uniq[2] != third {
		t.Error("representatives are not the first occurrences in input order")
	}
	if !reflect.DeepEqual(weights, []int{3, 1, 1}) {
		t.Fatalf("weights = %v, want [3 1 1]", weights)
	}

	if uniq, weights, err := DedupTopologies(nil); err != nil || uniq != nil || weights != nil {
		t.Errorf("empty input: got (%v, %v, %v)", uniq, weights, err)
	}
}

// TestWeightedAggregatorsMatchExpansion is the exactness contract behind
// core's bootstrap dedup: support values and the majority-rule consensus
// computed from (uniq, weights) must equal — bitwise for the supports,
// structurally for the consensus — the plain aggregators run on the full
// duplicated replicate list.
func TestWeightedAggregatorsMatchExpansion(t *testing.T) {
	taxa := []string{"A", "B", "C", "D", "E", "F"}
	// Six replicates, three distinct topologies with multiplicities 3/2/1 —
	// multiplicity 3 crosses the 0.5 majority line only jointly with the
	// agreeing clades of the others, so the consensus depends on the exact
	// weighted counts.
	reps := []*Tree{
		dedupTree(t, "((A,B),(C,D),(E,F));", taxa),
		dedupTree(t, "((A,C),(B,D),(E,F));", taxa),
		dedupTree(t, "((B,A),(F,E),(C,D));", taxa),
		dedupTree(t, "((A,C),(E,F),(D,B));", taxa),
		dedupTree(t, "((A,B):0.5,(C,D),(E,F));", taxa),
		dedupTree(t, "((A,E),(C,D),(B,F));", taxa),
	}
	ref := dedupTree(t, "((A,B),(C,D),(E,F));", taxa)

	uniq, weights, err := DedupTopologies(reps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(weights, []int{3, 2, 1}) {
		t.Fatalf("weights = %v, want [3 2 1]", weights)
	}

	plain, err := SupportValuesWeighted(ref, reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SupportValuesWeighted(ref, uniq, weights)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, weighted) {
		t.Errorf("weighted support %v != expanded %v", weighted, plain)
	}

	consPlain, err := MajorityRuleConsensusWeighted(reps, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	consWeighted, err := MajorityRuleConsensusWeighted(uniq, weights, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := consWeighted.Newick(), consPlain.Newick(); got != want {
		t.Errorf("weighted consensus %s != expanded %s", got, want)
	}

	// Weight validation: zero weights and length mismatches are rejected.
	if _, err := SupportValuesWeighted(ref, uniq, []int{3, 0, 1}); err == nil {
		t.Error("zero weight accepted by SupportValuesWeighted")
	}
	if _, err := MajorityRuleConsensusWeighted(uniq, []int{1, 2}, 0.5); err == nil {
		t.Error("length mismatch accepted by MajorityRuleConsensusWeighted")
	}
}

package phylotree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewickRender(t *testing.T) {
	tr := buildLadder(t, 4)
	s := tr.Newick()
	if !strings.HasSuffix(s, ");") || !strings.HasPrefix(s, "(") {
		t.Errorf("Newick = %q", s)
	}
	for _, name := range tr.Taxa {
		if !strings.Contains(s, name) {
			t.Errorf("Newick missing taxon %q: %s", name, s)
		}
	}
}

func TestParseNewickTrifurcating(t *testing.T) {
	tr, err := ParseNewick("(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTips() != 4 {
		t.Fatalf("tips = %d", tr.NumTips())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Branch c has length 0.3.
	var cTip *Node
	for _, tip := range tr.Tips {
		if tip.Name == "c" {
			cTip = tip
		}
	}
	if math.Abs(cTip.Z-0.3) > 1e-12 {
		t.Errorf("c branch = %v", cTip.Z)
	}
}

func TestParseNewickRootedIsUnrooted(t *testing.T) {
	// Rooted binary input: root fused into a single branch of length 0.3+0.4.
	tr, err := ParseNewick("((a:0.1,b:0.2):0.3,(c:0.1,d:0.2):0.4);")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(tr.Edges()), 2*4-3; got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}
	// Find the internal edge: its length must be 0.7.
	internals := tr.InternalEdges()
	if len(internals) != 1 {
		t.Fatalf("internal edges = %d", len(internals))
	}
	if math.Abs(internals[0].Z-0.7) > 1e-12 {
		t.Errorf("fused root branch = %v, want 0.7", internals[0].Z)
	}
}

func TestParseNewickQuotedAndSpaces(t *testing.T) {
	tr, err := ParseNewick("('taxon one':0.1, 'it''s':0.2, c:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Taxa[0] != "taxon one" || tr.Taxa[1] != "it's" {
		t.Errorf("taxa = %v", tr.Taxa)
	}
	// Round trip through quoting.
	rt, err := ParseNewick(tr.Newick())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if err := rt.AlignTaxa(tr.Taxa); err != nil {
		t.Fatal(err)
	}
}

func TestParseNewickMissingLengths(t *testing.T) {
	tr, err := ParseNewick("(a,b,(c,d));")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Edges() {
		if e.Z != DefaultBranchLength {
			t.Errorf("edge z = %v, want default", e.Z)
		}
	}
}

func TestParseNewickErrors(t *testing.T) {
	bad := []string{
		"",
		"(a,b);",             // 2 taxa after unrooting -> NewTree fails
		"(a,b,c,d);",         // quadrifurcating root
		"((a,b,c):1,d,e);",   // internal trifurcation
		"(a:0.1,b:0.2,c:0.3", // unclosed
		"(a,b,c); extra",     // trailing garbage
		"(a,b,(c,));",        // empty child -> unnamed tip
		"(a,b,'unterminated", // bad quote
		"(a,b,c:abc);",       // bad number
		"(a,b,a);",           // duplicate taxon
	}
	for _, s := range bad {
		if _, err := ParseNewick(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestParseNewickInternalLabels(t *testing.T) {
	// Support-value internal labels (as our consensus trees and most
	// phylogenetics tools emit) parse cleanly and are ignored.
	tr, err := ParseNewick("((a:0.1,b:0.2)0.95:0.3,c:0.1,d:0.2);")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTips() != 4 {
		t.Fatalf("tips = %d", tr.NumTips())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewickRoundTripTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10; i++ {
		tr, err := RandomTopology(names(12), rng)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb branch lengths for realism.
		for _, e := range tr.Edges() {
			e.SetZ(0.01 + rng.Float64())
		}
		rt, err := ParseNewick(tr.Newick())
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if err := rt.AlignTaxa(tr.Taxa); err != nil {
			t.Fatal(err)
		}
		d, err := RobinsonFoulds(tr, rt)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("round trip changed topology (RF=%d):\n%s\n%s", d, tr.Newick(), rt.Newick())
		}
		// Total branch length preserved to print precision.
		if a, b := totalLength(tr), totalLength(rt); math.Abs(a-b) > 1e-4 {
			t.Errorf("branch length sum drifted: %v vs %v", a, b)
		}
	}
}

// totalLength sums a tree's branch lengths.
func totalLength(tr *Tree) float64 {
	sum := 0.0
	for _, e := range tr.Edges() {
		sum += e.Z
	}
	return sum
}

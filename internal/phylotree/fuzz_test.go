package phylotree

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// FuzzParseNewick: arbitrary input must produce a clean error or a valid
// tree that Newick and ParseNewick carry through with the same topology and,
// to the six decimals Newick writes, the same branch lengths.
func FuzzParseNewick(f *testing.F) {
	tokens := []string{"(", ")", ",", ";", ":", "'", "a", "b", "0.5", "-1e3",
		"''", "((", "))", " ", "\t", "taxon", ":::", "1..2"}
	for _, s := range []string{
		"(a,b,c);",
		"((a:0.1,b:0.2):0.05,c:0.3,d:0.4);",
		"((a,b),(c,d));",
		"(a,(b,c)x:0.5)y;",
		"('q t':1,'it''s':2e-9,c:30);",
		"(a:-1e3,b:1..2,c);",
		"('a\rb',c,d);", // once written back unquoted
		strings.Join(tokens, ""),
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseNewick(s)
		if err != nil {
			if tr != nil {
				t.Fatalf("error %v with a tree", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		out := tr.Newick()
		back, err := ParseNewick(out)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", out, err)
		}
		if err := back.AlignTaxa(tr.Taxa); err != nil {
			t.Fatalf("re-parsing %q: %v", out, err)
		}
		lengths := func(t *Tree) map[Bipartition]float64 {
			m := make(map[Bipartition]float64)
			for _, e := range t.Edges() {
				m[bipartitionOf(e, len(t.Tips))] = e.Z
			}
			return m
		}
		want, got := lengths(tr), lengths(back)
		if len(got) != len(want) {
			t.Fatalf("%d branches, %d after the round trip through %q", len(want), len(got), out)
		}
		for bp, z := range want {
			zb, ok := got[bp]
			if !ok {
				t.Fatalf("a branch is missing after the round trip through %q", out)
			}
			if math.Abs(zb-z) > 5e-7+1e-12 {
				t.Fatalf("a branch of length %v reads %v after the round trip through %q", z, zb, out)
			}
		}
	})
}

// TestParseNewickRandomBytes exercises fully arbitrary input.
func TestParseNewickRandomBytes(t *testing.T) {
	f := func(raw []byte) bool {
		tr, err := ParseNewick(string(raw))
		if err == nil && tr != nil {
			return tr.Validate() == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

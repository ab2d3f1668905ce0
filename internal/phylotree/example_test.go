package phylotree_test

import (
	"fmt"

	"raxmlcell/internal/phylotree"
)

func ExampleParseNewick() {
	tr, err := phylotree.ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.1);")
	if err != nil {
		panic(err)
	}
	fmt.Println(tr.NumTips(), "taxa,", len(tr.Edges()), "branches")
	// Output:
	// 4 taxa, 5 branches
}

func ExampleTree_Ascii() {
	tr, err := phylotree.ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.1);")
	if err != nil {
		panic(err)
	}
	fmt.Println(tr.Ascii())
	// Output:
	// *
	// |-- a:0.100
	// |-- b:0.200
	// `-- +:0.050
	//     |-- c:0.300
	//     `-- d:0.100
}

func ExampleRobinsonFoulds() {
	a, _ := phylotree.ParseNewick("((a,b),(c,d),e);")
	b, _ := phylotree.ParseNewick("((a,c),(b,d),e);")
	if err := b.AlignTaxa(a.Taxa); err != nil {
		panic(err)
	}
	d, err := phylotree.RobinsonFoulds(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Println("RF distance:", d)
	// Output:
	// RF distance: 4
}

func ExampleMajorityRuleConsensusWeighted() {
	taxa := []string{"a", "b", "c", "d", "e"}
	var trees []*phylotree.Tree
	for _, s := range []string{
		"((a,b),(c,d),e);",
		"((a,b),(c,e),d);",
		"((a,b),(d,e),c);",
	} {
		tr, err := phylotree.ParseNewick(s)
		if err != nil {
			panic(err)
		}
		if err := tr.AlignTaxa(taxa); err != nil {
			panic(err)
		}
		trees = append(trees, tr)
	}
	cons, err := phylotree.MajorityRuleConsensusWeighted(trees, nil, 0.5)
	if err != nil {
		panic(err)
	}
	// The ab|cde split appears in all three trees (displayed as the clade
	// away from taxon a); the others are below majority.
	fmt.Println(cons.Newick())
	// Output:
	// ((c,d,e)1.00,a,b);
}

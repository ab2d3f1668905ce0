package phylotree

import (
	"bufio"
	"fmt"
	"io"
)

// NamedTree pairs a tree with its NEXUS label.
type NamedTree struct {
	Name string
	Tree *Tree
}

// WriteNexusTrees emits a TREES block with the given labelled trees.
func WriteNexusTrees(w io.Writer, trees []NamedTree) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#NEXUS")
	fmt.Fprintln(bw, "BEGIN TREES;")
	for _, nt := range trees {
		fmt.Fprintf(bw, "  TREE %s = %s\n", nt.Name, nt.Tree.Newick())
	}
	fmt.Fprintln(bw, "END;")
	return bw.Flush()
}

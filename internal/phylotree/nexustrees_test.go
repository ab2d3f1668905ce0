package phylotree

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestNexusTreesRoundTrip: every TREE line WriteNexusTrees emits carries its
// label and a Newick string that parses back to the tree it was given (RF 0,
// same branch lengths), quoted taxon names included.
func TestNexusTreesRoundTrip(t *testing.T) {
	var in []NamedTree
	for i, nwk := range []string{
		"((a:0.1,b:0.2):0.05,c:0.3,d:0.1);",
		"((a:0.1,c:0.2):0.05,b:0.3,d:0.1);",
		"(('Homo sapiens':0.1,'it''s':0.2):0.05,c:0.3,d:0.1);",
	} {
		tr, err := ParseNewick(nwk)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, NamedTree{Name: "t" + string(rune('1'+i)), Tree: tr})
	}
	var buf bytes.Buffer
	if err := WriteNexusTrees(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(in)+3 || lines[0] != "#NEXUS" || lines[1] != "BEGIN TREES;" || lines[len(lines)-1] != "END;" {
		t.Fatalf("not a NEXUS TREES block:\n%s", buf.String())
	}
	for i, nt := range in {
		label, nwk, ok := strings.Cut(strings.TrimSpace(lines[i+2]), " = ")
		if !ok || label != "TREE "+nt.Name {
			t.Fatalf("line %q, want TREE %s = …", lines[i+2], nt.Name)
		}
		got, err := ParseNewick(nwk)
		if err != nil {
			t.Fatalf("%s: %v", nt.Name, err)
		}
		if err := got.AlignTaxa(nt.Tree.Taxa); err != nil {
			t.Fatal(err)
		}
		d, err := RobinsonFoulds(nt.Tree, got)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("%s: round trip changed topology (RF=%d)", nt.Name, d)
		}
		if got.Newick() != nt.Tree.Newick() {
			t.Errorf("%s: round trip changed the tree:\n got %s\nwant %s", nt.Name, got.Newick(), nt.Tree.Newick())
		}
	}
}

type failingWriter struct{}

var errWrite = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestWriteNexusTreesWriterError: a failing writer's error reaches the
// caller, so raxml's -trees-out does not report a file it could not write.
func TestWriteNexusTreesWriterError(t *testing.T) {
	tr, err := ParseNewick("(a:0.1,b:0.2,c:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteNexusTrees(failingWriter{}, []NamedTree{{Name: "best", Tree: tr}}); !errors.Is(err, errWrite) {
		t.Errorf("WriteNexusTrees = %v, want the writer's error", err)
	}
}

package alignment

import (
	"bytes"
	"strings"
	"testing"
)

const nexusSequential = `#NEXUS
[ generated for the test suite ]
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=8;
  FORMAT DATATYPE=DNA MISSING=? GAP=-;
  MATRIX
    alpha  ACGTACGT
    beta   ACGTACGA
    'taxon three' ACG-ACG?
  ;
END;
`

const nexusInterleaved = `#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=8;
  FORMAT DATATYPE=DNA INTERLEAVE=YES;
  MATRIX
    alpha  ACGT
    beta   ACGT
    gamma  ACGT

    alpha  ACGT
    beta   ACGA
    gamma  ACGG
  ;
END;
`

func TestReadNexusSequential(t *testing.T) {
	a, err := ReadNexus(strings.NewReader(nexusSequential))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 3 || a.NumSites() != 8 {
		t.Fatalf("got %dx%d", a.NumTaxa(), a.NumSites())
	}
	if a.Seqs[2].Name != "taxon three" {
		t.Errorf("quoted label = %q", a.Seqs[2].Name)
	}
	if got := a.Seqs[2].String(); got != "ACG-ACG-" {
		// '?' normalizes to gap semantics and prints as '-'.
		t.Errorf("seq3 = %q", got)
	}
}

func TestReadNexusInterleaved(t *testing.T) {
	a, err := ReadNexus(strings.NewReader(nexusInterleaved))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSites() != 8 {
		t.Fatalf("sites = %d", a.NumSites())
	}
	if a.Seqs[1].String() != "ACGTACGA" {
		t.Errorf("beta = %q", a.Seqs[1].String())
	}
}

func TestReadNexusCustomMissingGap(t *testing.T) {
	in := `#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=4;
  FORMAT DATATYPE=DNA MISSING=N GAP=.;
  MATRIX
    a  AC.N
    b  ACGT
    c  ACGA
  ;
END;
`
	a, err := ReadNexus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Seqs[0].String(); got != "AC--" {
		t.Errorf("custom gap/missing: %q", got)
	}
}

func TestReadNexusErrors(t *testing.T) {
	bad := []string{
		"",
		"not nexus\n",
		"#NEXUS\nBEGIN DATA;\nMATRIX\n;\nEND;\n", // no data
		"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=5 NCHAR=4;\nMATRIX\na ACGT\nb ACGT\nc ACGT\n;\nEND;\n", // taxa mismatch
		"#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=3 NCHAR=9;\nMATRIX\na ACGT\nb ACGT\nc ACGT\n;\nEND;\n", // nchar mismatch
		"#NEXUS\nBEGIN DATA;\nFORMAT DATATYPE=PROTEIN;\nMATRIX\na ACGT\n;\nEND;\n",                   // datatype
		"#NEXUS\nBEGIN DATA;\nMATRIX\n'unterminated ACGT\n;\nEND;\n",                                 // bad quote
	}
	for _, in := range bad {
		if _, err := ReadNexus(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestNexusRoundTrip(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(phylipSequential))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeNexus(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadNexus(&buf)
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	for i := range a.Seqs {
		if a.Seqs[i].Name != b.Seqs[i].Name || a.Seqs[i].String() != b.Seqs[i].String() {
			t.Errorf("round trip mismatch at taxon %d", i)
		}
	}
}

func TestNexusCommentStripping(t *testing.T) {
	if got := stripNexusComments("AC[comment]GT"); got != "ACGT" {
		t.Errorf("stripped = %q", got)
	}
	if got := stripNexusComments("AC[unclosed"); got != "AC" {
		t.Errorf("unclosed = %q", got)
	}
	if got := stripNexusComments("[a][b]X"); got != "X" {
		t.Errorf("multiple = %q", got)
	}
}

package alignment

import (
	"bytes"
	"strings"
	"testing"
)

const phylipSequential = `4 12
alpha  ACGTACGTACGT
beta   ACGTACGTACGA
gamma  ACGTACGTACGG
delta  ACGTACGTACGC
`

const phylipInterleaved = `4 12
alpha  ACGTAC
beta   ACGTAC
gamma  ACGTAC
delta  ACGTAC

GTACGT
GTACGA
GTACGG
GTACGC
`

func TestReadPhylipSequential(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(phylipSequential))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 4 || a.NumSites() != 12 {
		t.Fatalf("got %dx%d", a.NumTaxa(), a.NumSites())
	}
	if a.Seqs[0].Name != "alpha" || a.Seqs[3].Name != "delta" {
		t.Errorf("names = %v", a.Names())
	}
	if a.Seqs[1].String() != "ACGTACGTACGA" {
		t.Errorf("beta = %q", a.Seqs[1].String())
	}
}

func TestReadPhylipInterleaved(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(phylipInterleaved))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadPhylip(strings.NewReader(phylipSequential))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seqs {
		if a.Seqs[i].String() != b.Seqs[i].String() {
			t.Errorf("taxon %d: interleaved %q != sequential %q", i, a.Seqs[i].String(), b.Seqs[i].String())
		}
	}
}

func TestReadPhylipErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"notaheader\n",            // bad header
		"2 4\nonly ACGT\n",        // missing taxon
		"1 4\nt1 ACG\n",           // short sequence
		"1 4\nt1 ACGZ\n",          // invalid char
		"1 4\nt1\n",               // no data on line
		"0 0\n",                   // zero dims
		"2 4\nt1 ACGT\nt1 ACGT\n", // duplicate names
	}
	for _, in := range cases {
		if _, err := ReadPhylip(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestPhylipRoundTrip(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(phylipSequential))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePhylip(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadPhylip(&buf)
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	for i := range a.Seqs {
		if a.Seqs[i].Name != b.Seqs[i].Name || a.Seqs[i].String() != b.Seqs[i].String() {
			t.Errorf("round trip mismatch at taxon %d", i)
		}
	}
}

func TestFastaRoundTrip(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(phylipSequential))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seqs {
		if a.Seqs[i].Name != b.Seqs[i].Name || a.Seqs[i].String() != b.Seqs[i].String() {
			t.Errorf("fasta round trip mismatch at taxon %d", i)
		}
	}
}

func TestReadFastaWrapped(t *testing.T) {
	in := ">tax1 description ignored\nACGT\nACGT\n>tax2\nACGTACGA\n"
	a, err := ReadFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 2 || a.NumSites() != 8 {
		t.Fatalf("got %dx%d", a.NumTaxa(), a.NumSites())
	}
	if a.Seqs[0].Name != "tax1" {
		t.Errorf("name = %q", a.Seqs[0].Name)
	}
}

func TestReadFastaErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"ACGT\n",               // data before header
		">\nACGT\n",            // empty header
		">a\nACGT\n>b\nACG\n",  // ragged
		">a\nACGT\n>a\nACGT\n", // duplicate
		">a\nAC GZ\n",          // invalid char (Z)
	}
	for _, in := range cases {
		if _, err := ReadFasta(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestReadPhylipInvalidCharacterText pins the error of an invalid character:
// the taxon, its site within the taxon's row (white space and earlier
// interleaved blocks counted as the row, not the line, has them) and the
// character.
func TestReadPhylipInvalidCharacterText(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"2 8\nt1 ACGTACGT\nt2 ACG TAZGT\n", `phylip: sequence "t2" site 6: bio: invalid nucleotide character 'Z'`},
		{"2 8\nt1 ACGT\nt2 ACGT\nACGT\nAC-\t.T\n", `phylip: sequence "t2" site 8: bio: invalid nucleotide character '.'`},
		{"2 4\nt1 ACéT\nt2 ACGT\n", `phylip: sequence "t1" site 3: bio: invalid nucleotide character 'Ã'`},
	} {
		_, err := ReadPhylip(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %s", c.in, err, c.want)
		}
	}
}

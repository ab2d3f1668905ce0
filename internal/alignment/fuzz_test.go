package alignment

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"raxmlcell/internal/bio"
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
// alignment that WritePhylip and ReadPhylip carry through unchanged, and
// the same error text or alignment as the reference reader.
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
		phylipInterleaved,
		"3 8\r\na ACGT\r\nb ACGA\r\nc AC-N\r\n\r\nACGT\r\nRYKM\r\n?NNN\r\n",
		"3 8\na AC GT\tac\vgt\nb\tACGA  AC\u00a0GA\nc  AC-N \fAC-N\u0085\n",
		"3 8\na ACGT\nb ACGA\nc AC-N\n AC GT\nRY\tKM \n?N\u2003NN\n",
		"2 4\na AC\u00e9T\nb ACGT\n", // a non-space multi-byte character
		"2 4\na AC\xffT\nb ACGT\n",   // invalid UTF-8
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzRoundTrip(t, raw, ReadPhylip, WritePhylip)
		got, gotErr := ReadPhylip(bytes.NewReader(raw))
		want, wantErr := readPhylipReference(bytes.NewReader(raw))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, the reference reader's %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		for i, s := range want.Seqs {
			if g := got.Seqs[i]; g.Name != s.Name || !bytes.Equal(g.Codes, s.Codes) {
				t.Fatalf("taxon %d is %q %s, the reference reader's %q %s", i, g.Name, g.String(), s.Name, s.String())
			}
		}
	})
}

// readPhylipReference is ReadPhylip before it encoded lines in place: it
// splits each line with strings.Fields, joins the data and encodes every
// row with bio.NewSequence at the end. FuzzReadPhylip holds ReadPhylip to
// its alignments and to its error texts.
func readPhylipReference(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var nTaxa, nSites int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if n, err := fmt.Sscanf(line, "%d %d", &nTaxa, &nSites); n != 2 || err != nil {
			return nil, fmt.Errorf("phylip: bad header %q", line)
		}
		break
	}
	if nTaxa <= 0 || nSites <= 0 {
		return nil, fmt.Errorf("phylip: missing or invalid header (taxa=%d sites=%d)", nTaxa, nSites)
	}
	var names []string
	var raw [][]byte
	cur := 0
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r\n")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if len(names) < nTaxa {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("phylip: sequence line %q has no data", line)
			}
			names = append(names, fields[0])
			raw = append(raw, []byte(strings.Join(fields[1:], "")))
			continue
		}
		raw[cur] = append(raw[cur], strings.Join(strings.Fields(line), "")...)
		cur = (cur + 1) % nTaxa
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("phylip: %w", err)
	}
	if len(names) != nTaxa {
		return nil, fmt.Errorf("phylip: found %d taxa, header says %d", len(names), nTaxa)
	}
	seqs := make([]*bio.Sequence, nTaxa)
	for i, name := range names {
		s, err := bio.NewSequence(name, string(raw[i]))
		if err != nil {
			return nil, fmt.Errorf("phylip: %w", err)
		}
		if s.Len() != nSites {
			return nil, fmt.Errorf("phylip: taxon %q has %d sites, header says %d", name, s.Len(), nSites)
		}
		seqs[i] = s
	}
	return New(seqs)
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
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzRoundTrip(t, raw, ReadNexus, writeNexus) })
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

// writeNexus emits the alignment as a NEXUS DATA block.
func writeNexus(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#NEXUS")
	fmt.Fprintln(bw, "BEGIN DATA;")
	fmt.Fprintf(bw, "  DIMENSIONS NTAX=%d NCHAR=%d;\n", a.NumTaxa(), a.NumSites())
	fmt.Fprintln(bw, "  FORMAT DATATYPE=DNA MISSING=? GAP=-;")
	fmt.Fprintln(bw, "  MATRIX")
	width := 0
	for _, s := range a.Seqs {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range a.Seqs {
		name := s.Name
		if strings.ContainsAny(name, " \t") {
			name = "'" + name + "'"
		}
		fmt.Fprintf(bw, "    %-*s  %s\n", width+2, name, s.String())
	}
	fmt.Fprintln(bw, "  ;")
	fmt.Fprintln(bw, "END;")
	return bw.Flush()
}

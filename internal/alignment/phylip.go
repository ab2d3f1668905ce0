package alignment

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"raxmlcell/internal/bio"
)

// ReadPhylip parses a PHYLIP alignment, accepting both sequential and
// interleaved (relaxed) layouts. The header line carries the taxon and site
// counts; names are whitespace-delimited (relaxed PHYLIP, as RAxML accepts).
func ReadPhylip(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)

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

	// Grown as rows arrive: a header's taxon count is not evidence of rows.
	// Each line's characters are encoded as they are read; a taxon's first
	// invalid character is its error, reported after the whole file is read
	// so that errors keep the precedence they have at the end.
	var names []string
	var codes [][]byte
	var bad []error
	cur := 0 // next sequence expecting data in the current block

	for sc.Scan() {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		i := cur
		if len(names) < nTaxa {
			// First block: leading token is the taxon name.
			if len(fields) < 2 {
				return nil, fmt.Errorf("phylip: sequence line %q has no data", strings.TrimRight(sc.Text(), "\r\n"))
			}
			names = append(names, string(fields[0]))
			codes, bad = append(codes, nil), append(bad, nil)
			i, fields = len(names)-1, fields[1:]
		} else {
			// Continuation blocks (interleaved): data only, cycling through taxa.
			cur = (cur + 1) % nTaxa
		}
		for _, f := range fields {
			if bad[i] != nil {
				break
			}
			var n int
			if codes[i], n = bio.AppendCodes(codes[i], f); n < len(f) {
				_, err := bio.Encode(f[n])
				bad[i] = fmt.Errorf("phylip: sequence %q site %d: %w", names[i], len(codes[i])+1, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("phylip: %w", err)
	}
	if len(names) != nTaxa {
		return nil, fmt.Errorf("phylip: found %d taxa, header says %d", len(names), nTaxa)
	}

	seqs := make([]*bio.Sequence, nTaxa)
	for i, name := range names {
		if bad[i] != nil {
			return nil, bad[i]
		}
		if len(codes[i]) != nSites {
			return nil, fmt.Errorf("phylip: taxon %q has %d sites, header says %d", name, len(codes[i]), nSites)
		}
		seqs[i] = &bio.Sequence{Name: name, Codes: codes[i]}
	}
	return New(seqs)
}

// WritePhylip emits the alignment in sequential relaxed PHYLIP format.
func WritePhylip(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", a.NumTaxa(), a.NumSites()); err != nil {
		return err
	}
	width := 0
	for _, s := range a.Seqs {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range a.Seqs {
		if _, err := fmt.Fprintf(bw, "%-*s  %s\n", width, s.Name, s.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFasta parses a FASTA alignment (all records must have equal length).
func ReadFasta(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var seqs []*bio.Sequence
	var name string
	var data strings.Builder
	flush := func() error {
		if name == "" {
			return nil
		}
		s, err := bio.NewSequence(name, data.String())
		if err != nil {
			return err
		}
		if s.Len() == 0 {
			return fmt.Errorf("record %q has no sequence", name)
		}
		seqs = append(seqs, s)
		data.Reset()
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ">") {
			if err := flush(); err != nil {
				return nil, fmt.Errorf("fasta: %w", err)
			}
			fields := strings.Fields(line[1:])
			if len(fields) == 0 {
				return nil, fmt.Errorf("fasta: empty header line")
			}
			name = fields[0]
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("fasta: data before first header")
		}
		data.WriteString(line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	if err := flush(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("fasta: no records")
	}
	return New(seqs)
}

// WriteFasta emits the alignment as FASTA with 70-column wrapping.
func WriteFasta(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	for _, s := range a.Seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Name); err != nil {
			return err
		}
		str := s.String()
		for len(str) > 0 {
			n := 70
			if n > len(str) {
				n = len(str)
			}
			if _, err := fmt.Fprintln(bw, str[:n]); err != nil {
				return err
			}
			str = str[n:]
		}
	}
	return bw.Flush()
}

package alignment

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"raxmlcell/internal/bio"
)

// ReadNexus parses the DATA (or CHARACTERS) block of a NEXUS file: the
// other interchange format phylogenetics tools expect besides PHYLIP and
// FASTA. Supported: DIMENSIONS NTAX/NCHAR, FORMAT DATATYPE=DNA (missing and
// gap characters are honored by mapping them to '?'/'-'), sequential and
// interleaved MATRIX layouts, quoted taxon labels, and [comments].
func ReadNexus(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() || !strings.EqualFold(strings.TrimSpace(sc.Text()), "#NEXUS") {
		return nil, fmt.Errorf("nexus: missing #NEXUS header")
	}

	var (
		nTax, nChar  int
		missing, gap byte = '?', '-'
		inData       bool
		inMatrix     bool
		names        []string
		seqs         = map[string]*strings.Builder{}
		order        []string
	)

	appendData := func(name, data string) {
		b, ok := seqs[name]
		if !ok {
			b = &strings.Builder{}
			seqs[name] = b
			order = append(order, name)
		}
		b.WriteString(data)
	}

	for sc.Scan() {
		line := stripNexusComments(sc.Text())
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		upper := strings.ToUpper(trimmed)

		switch {
		// Inside MATRIX every line is a row, whatever its taxon is called:
		// only the terminating ';' ends it.
		case inMatrix:
			if trimmed == ";" {
				inMatrix = false
				continue
			}
			row := strings.TrimSuffix(trimmed, ";")
			name, data, err := splitNexusRow(row)
			if err != nil {
				return nil, err
			}
			// Normalize the user's missing/gap characters.
			norm := strings.Map(func(c rune) rune {
				switch byte(c) {
				case missing:
					return '?'
				case gap:
					return '-'
				}
				return c
			}, data)
			appendData(name, norm)
			if strings.HasSuffix(trimmed, ";") {
				inMatrix = false
			}
		case strings.HasPrefix(upper, "BEGIN DATA") || strings.HasPrefix(upper, "BEGIN CHARACTERS"):
			inData = true
		case strings.HasPrefix(upper, "END;") || strings.HasPrefix(upper, "ENDBLOCK;"):
			inData = false
		case !inData:
			continue
		case strings.HasPrefix(upper, "DIMENSIONS"):
			for _, f := range strings.Fields(strings.TrimSuffix(trimmed, ";")) {
				kv := strings.SplitN(f, "=", 2)
				if len(kv) != 2 {
					continue
				}
				v, err := strconv.Atoi(kv[1])
				if err != nil {
					return nil, fmt.Errorf("nexus: bad dimension %q", f)
				}
				switch strings.ToUpper(kv[0]) {
				case "NTAX":
					nTax = v
				case "NCHAR":
					nChar = v
				}
			}
		case strings.HasPrefix(upper, "FORMAT"):
			for _, f := range strings.Fields(strings.TrimSuffix(trimmed, ";")) {
				kv := strings.SplitN(f, "=", 2)
				if len(kv) != 2 {
					continue
				}
				val := strings.Trim(kv[1], "'\"")
				switch strings.ToUpper(kv[0]) {
				case "DATATYPE":
					if !strings.EqualFold(val, "DNA") && !strings.EqualFold(val, "NUCLEOTIDE") {
						return nil, fmt.Errorf("nexus: unsupported datatype %q (DNA only)", val)
					}
				case "MISSING":
					if len(val) == 1 {
						missing = val[0]
					}
				case "GAP":
					if len(val) == 1 {
						gap = val[0]
					}
				}
			}
		case strings.HasPrefix(upper, "MATRIX"):
			inMatrix = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("nexus: %w", err)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("nexus: no MATRIX data found")
	}
	if nTax > 0 && len(order) != nTax {
		return nil, fmt.Errorf("nexus: found %d taxa, DIMENSIONS says %d", len(order), nTax)
	}
	names = order
	out := make([]*bio.Sequence, 0, len(names))
	for _, name := range names {
		s, err := bio.NewSequence(name, seqs[name].String())
		if err != nil {
			return nil, fmt.Errorf("nexus: %w", err)
		}
		if nChar > 0 && s.Len() != nChar {
			return nil, fmt.Errorf("nexus: taxon %q has %d characters, NCHAR says %d", name, s.Len(), nChar)
		}
		out = append(out, s)
	}
	return New(out)
}

// splitNexusRow separates a matrix row into its (possibly quoted) taxon
// label and sequence data.
func splitNexusRow(row string) (string, string, error) {
	row = strings.TrimSpace(row)
	if row == "" {
		return "", "", fmt.Errorf("nexus: empty matrix row")
	}
	if row[0] == '\'' {
		end := strings.IndexByte(row[1:], '\'')
		if end < 0 {
			return "", "", fmt.Errorf("nexus: unterminated quoted label in %q", row)
		}
		name := row[1 : 1+end]
		data := strings.TrimSpace(row[2+end:])
		if name == "" || data == "" {
			return "", "", fmt.Errorf("nexus: malformed row %q", row)
		}
		return name, strings.Join(strings.Fields(data), ""), nil
	}
	fields := strings.Fields(row)
	if len(fields) < 2 {
		return "", "", fmt.Errorf("nexus: matrix row %q has no data", row)
	}
	return fields[0], strings.Join(fields[1:], ""), nil
}

// stripNexusComments removes [bracketed] comments (single-line scope).
func stripNexusComments(line string) string {
	for {
		open := strings.IndexByte(line, '[')
		if open < 0 {
			return line
		}
		close := strings.IndexByte(line[open:], ']')
		if close < 0 {
			return line[:open]
		}
		line = line[:open] + line[open+close+1:]
	}
}

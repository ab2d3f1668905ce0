package bio

import (
	"fmt"
	"strings"
)

// Sequence is a named, 4-bit-encoded DNA sequence.
type Sequence struct {
	Name  string
	Codes []byte // one 4-bit state mask per site
}

// NewSequence encodes the raw character data of a sequence. Whitespace inside
// the data is ignored (PHYLIP interleaved files space their blocks).
func NewSequence(name, data string) (*Sequence, error) {
	codes := make([]byte, 0, len(data))
	for i := 0; i < len(data); i++ {
		c := data[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			continue
		}
		m, err := Encode(c)
		if err != nil {
			return nil, fmt.Errorf("sequence %q site %d: %w", name, len(codes)+1, err)
		}
		codes = append(codes, m)
	}
	return &Sequence{Name: name, Codes: codes}, nil
}

// Len returns the number of sites.
func (s *Sequence) Len() int { return len(s.Codes) }

// String renders the sequence back to IUPAC characters.
func (s *Sequence) String() string {
	var b strings.Builder
	b.Grow(len(s.Codes))
	for _, m := range s.Codes {
		b.WriteByte(Decode(m))
	}
	return b.String()
}

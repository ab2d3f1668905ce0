package bio

import (
	"testing"
	"testing/quick"
)

func TestEncodeBases(t *testing.T) {
	cases := []struct {
		in   byte
		want byte
	}{
		{'A', BitA}, {'C', BitC}, {'G', BitG}, {'T', BitT},
		{'a', BitA}, {'c', BitC}, {'g', BitG}, {'t', BitT},
		{'U', BitT}, {'u', BitT},
		{'N', Gap}, {'-', Gap}, {'?', Gap}, {'X', Gap},
		{'R', BitA | BitG}, {'Y', BitC | BitT},
		{'M', BitA | BitC}, {'K', BitG | BitT},
		{'S', BitC | BitG}, {'W', BitA | BitT},
		{'V', BitA | BitC | BitG}, {'H', BitA | BitC | BitT},
		{'D', BitA | BitG | BitT}, {'B', BitC | BitG | BitT},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Encode(%q) = %04b, want %04b", c.in, got, c.want)
		}
	}
}

func TestEncodeInvalid(t *testing.T) {
	for _, c := range []byte{'Z', 'J', '1', ' ', 0, '*'} {
		if _, err := Encode(c); err == nil {
			t.Errorf("Encode(%q) succeeded, want error", c)
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	// Every nonzero 4-bit mask must decode to a character that re-encodes to
	// the same mask.
	for m := byte(1); m < 16; m++ {
		c := Decode(m)
		got, err := Encode(c)
		if err != nil {
			t.Fatalf("Encode(Decode(%04b)=%q): %v", m, c, err)
		}
		if got != m {
			t.Errorf("round trip %04b -> %q -> %04b", m, c, got)
		}
	}
}

func TestIsAmbiguous(t *testing.T) {
	if IsAmbiguous(BitA) || IsAmbiguous(BitT) {
		t.Error("single base flagged ambiguous")
	}
	if !IsAmbiguous(Gap) || !IsAmbiguous(BitA|BitC) {
		t.Error("multi-base mask not flagged ambiguous")
	}
}

func TestNewSequence(t *testing.T) {
	s, err := NewSequence("taxon1", "ACGT acgt\nNN--")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 12 {
		t.Fatalf("Len = %d, want 12 (whitespace stripped)", s.Len())
	}
	if got := s.String(); got != "ACGTACGT----" {
		// N and - both canonicalize; N decodes to '-' only if mask==15.
		t.Errorf("String() = %q", got)
	}
}

func TestNewSequenceInvalid(t *testing.T) {
	if _, err := NewSequence("bad", "ACGZ"); err == nil {
		t.Error("invalid character accepted")
	}
}

// Property: Decode∘Encode is the identity on unambiguous bases and encoding
// is case-insensitive.
func TestEncodeProperties(t *testing.T) {
	f := func(raw uint8) bool {
		bases := []byte{'A', 'C', 'G', 'T'}
		c := bases[int(raw)%4]
		up, err1 := Encode(c)
		lo, err2 := Encode(c | 0x20)
		return err1 == nil && err2 == nil && up == lo && Decode(up) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Package bio provides the biological sequence primitives used throughout
// the RAxML-Cell reproduction: the DNA alphabet, IUPAC ambiguity codes, the
// 4-bit state encoding used by the likelihood and parsimony kernels, and a
// sequence container.
//
// The encoding follows RAxML: each nucleotide character maps to a 4-bit mask
// with one bit per base (A=1, C=2, G=4, T=8). Ambiguity codes set several
// bits; a gap or unknown character sets all four. The likelihood kernels use
// the mask to build tip likelihood vectors (bit set => conditional
// probability 1), and the parsimony kernel uses it directly as a Fitch state
// set.
package bio

import (
	"fmt"
	"slices"
)

// NumStates is the number of character states for DNA data.
const NumStates = 4

// Base bit masks for the 4-bit state encoding.
const (
	BitA byte = 1 << iota
	BitC
	BitG
	BitT
)

// Gap is the 4-bit code of a gap/unknown character: all states possible.
const Gap byte = BitA | BitC | BitG | BitT

// code4 maps a byte to its 4-bit state mask, or 0 if invalid. Lower-case
// letters encode like their upper-case forms.
var code4 = func() [256]byte {
	t := [256]byte{
		'A': BitA,
		'C': BitC,
		'G': BitG,
		'T': BitT,
		'U': BitT, // RNA uracil treated as T
		'M': BitA | BitC,
		'R': BitA | BitG,
		'W': BitA | BitT,
		'S': BitC | BitG,
		'Y': BitC | BitT,
		'K': BitG | BitT,
		'V': BitA | BitC | BitG,
		'H': BitA | BitC | BitT,
		'D': BitA | BitG | BitT,
		'B': BitC | BitG | BitT,
		'N': Gap,
		'X': Gap,
		'?': Gap,
		'-': Gap,
		'O': Gap,
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = t[c-'a'+'A']
	}
	return t
}()

// char4 maps a 4-bit state mask back to its canonical IUPAC character.
var char4 = [16]byte{
	0:  '?',
	1:  'A',
	2:  'C',
	3:  'M',
	4:  'G',
	5:  'R',
	6:  'S',
	7:  'V',
	8:  'T',
	9:  'W',
	10: 'Y',
	11: 'H',
	12: 'K',
	13: 'D',
	14: 'B',
	15: '-',
}

// Encode returns the 4-bit state mask for a nucleotide character
// (case-insensitive). It reports an error for characters outside the IUPAC
// DNA alphabet.
func Encode(c byte) (byte, error) {
	m := code4[c]
	if m == 0 {
		return 0, fmt.Errorf("bio: invalid nucleotide character %q", c)
	}
	return m, nil
}

// AppendCodes appends the 4-bit codes of src's leading nucleotide characters
// (case-insensitive) to dst. It stops at the first byte outside the IUPAC DNA
// alphabet, white space included, and returns the extended dst and the
// number of bytes of src it encoded.
func AppendCodes(dst, src []byte) ([]byte, int) {
	dst = slices.Grow(dst, len(src))
	for i, c := range src {
		if code4[c] == 0 {
			return dst, i
		}
		dst = append(dst, code4[c])
	}
	return dst, len(src)
}

// Decode returns the canonical IUPAC character for a 4-bit state mask.
func Decode(mask byte) byte {
	return char4[mask&0x0f]
}

// IsAmbiguous reports whether the mask represents more than one base.
func IsAmbiguous(mask byte) bool {
	m := mask & 0x0f
	return m&(m-1) != 0
}

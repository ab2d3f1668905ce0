// Package alignment provides multiple sequence alignment containers, PHYLIP
// and FASTA input/output, site-pattern compression, and non-parametric
// bootstrap resampling.
//
// Site-pattern compression is the representation the likelihood kernels
// operate on: identical alignment columns are collapsed into one pattern with
// an integer weight. For the paper's 42_SC input (42 taxa x 1167 sites) this
// yields on the order of 250 distinct patterns, which sets the trip count of
// the dominant likelihood loop (228 in the paper's measurements).
package alignment

import (
	"fmt"
	"math/bits"

	"raxmlcell/internal/bio"
)

// Alignment is a set of equal-length, 4-bit encoded sequences.
type Alignment struct {
	Seqs []*bio.Sequence
}

// New validates that all sequences have equal length and distinct names.
func New(seqs []*bio.Sequence) (*Alignment, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("alignment: no sequences")
	}
	n := seqs[0].Len()
	names := make(map[string]bool, len(seqs))
	for _, s := range seqs {
		if s.Len() != n {
			return nil, fmt.Errorf("alignment: sequence %q has length %d, want %d", s.Name, s.Len(), n)
		}
		if s.Name == "" {
			return nil, fmt.Errorf("alignment: empty sequence name")
		}
		if names[s.Name] {
			return nil, fmt.Errorf("alignment: duplicate sequence name %q", s.Name)
		}
		names[s.Name] = true
	}
	return &Alignment{Seqs: seqs}, nil
}

// NumTaxa returns the number of sequences.
func (a *Alignment) NumTaxa() int { return len(a.Seqs) }

// NumSites returns the alignment length.
func (a *Alignment) NumSites() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return a.Seqs[0].Len()
}

// Names returns the taxon names in order.
func (a *Alignment) Names() []string {
	names := make([]string, len(a.Seqs))
	for i, s := range a.Seqs {
		names[i] = s.Name
	}
	return names
}

// Column writes alignment column j (one code per taxon) into dst and returns
// it. If dst is nil or too small a new slice is allocated.
func (a *Alignment) Column(j int, dst []byte) []byte {
	if cap(dst) < len(a.Seqs) {
		dst = make([]byte, len(a.Seqs))
	}
	dst = dst[:len(a.Seqs)]
	for i, s := range a.Seqs {
		dst[i] = s.Codes[j]
	}
	return dst
}

// BaseFrequencies returns the empirical base frequencies across the whole
// alignment. Ambiguous characters distribute their mass uniformly over the
// bases they allow, matching RAxML's empirical frequency estimation.
func (a *Alignment) BaseFrequencies() [bio.NumStates]float64 {
	var counts [bio.NumStates]float64
	for _, s := range a.Seqs {
		for _, m := range s.Codes {
			tally(&counts, m, 1)
		}
	}
	return frequencies(counts)
}

// shares holds, per 4-bit code, how many bases the code allows and a 1 for
// each of them. Codes that carry no information (none, or all four: a gap)
// have no 1s, so tally adds zeros for them; counts never hold -0, so adding
// +0 leaves them bit for bit as skipping the code would.
var shares = func() (t [16]struct {
	n  float64
	on [bio.NumStates]float64
}) {
	for m := range t {
		t[m].n = 1
		if m == 0 || m == 15 {
			continue
		}
		t[m].n = float64(bits.OnesCount8(uint8(m)))
		for b := range t[m].on {
			if m&(1<<b) != 0 {
				t[m].on[b] = 1
			}
		}
	}
	return t
}()

// tally adds weight to counts, shared evenly over the bases code m allows.
func tally(counts *[bio.NumStates]float64, m byte, weight int) {
	s := &shares[m&15]
	w := float64(weight) / s.n
	counts[0] += w * s.on[0]
	counts[1] += w * s.on[1]
	counts[2] += w * s.on[2]
	counts[3] += w * s.on[3]
}

// frequencies normalises base counts into frequencies. Every frequency is at
// least 1e-6 before the final renormalisation: the GTR model requires
// strictly positive frequencies, which a degenerate alignment lacks.
func frequencies(counts [bio.NumStates]float64) [bio.NumStates]float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	var freq [bio.NumStates]float64
	if total == 0 {
		for i := range freq {
			freq[i] = 1.0 / bio.NumStates
		}
		return freq
	}
	for i := range freq {
		freq[i] = counts[i] / total
		if freq[i] < 1e-6 {
			freq[i] = 1e-6
		}
	}
	total = 0
	for _, f := range freq {
		total += f
	}
	for i := range freq {
		freq[i] /= total
	}
	return freq
}

// Patterns is a site-pattern-compressed alignment: data is stored
// taxon-major over distinct patterns, with a weight per pattern.
type Patterns struct {
	NumTaxa  int
	NumSites int      // original (uncompressed) site count
	Names    []string // taxon names, index-aligned with Data
	Data     [][]byte // Data[taxon][pattern] = 4-bit code
	Weights  []int    // Weights[pattern] = column multiplicity
}

// Compress collapses identical columns of the alignment into weighted
// patterns. Pattern order is the order of first appearance, which keeps the
// compression deterministic.
func Compress(a *Alignment) *Patterns {
	nt, ns := a.NumTaxa(), a.NumSites()
	p := &Patterns{
		NumTaxa:  nt,
		NumSites: ns,
		Names:    a.Names(),
		Data:     make([][]byte, nt),
	}
	index := make(map[string]int, ns)
	var first []int // first[k] is the column where pattern k first appears
	col := make([]byte, nt)
	for j := 0; j < ns; j++ {
		col = a.Column(j, col)
		if k, ok := index[string(col)]; ok {
			p.Weights[k]++
			continue
		}
		index[string(col)] = len(first)
		first = append(first, j)
		p.Weights = append(p.Weights, 1)
	}
	np := len(first)
	slab := make([]byte, nt*np)
	for i, s := range a.Seqs {
		row := slab[i*np : (i+1)*np : (i+1)*np]
		for k, j := range first {
			row[k] = s.Codes[j]
		}
		p.Data[i] = row
	}
	return p
}

// NumPatterns returns the number of distinct site patterns.
func (p *Patterns) NumPatterns() int { return len(p.Weights) }

// WithWeights returns a shallow copy of p sharing Data/Names but carrying the
// given per-pattern weights. It is the primitive under bootstrap replicates:
// resampling columns of the original alignment only changes pattern weights.
func (p *Patterns) WithWeights(weights []int) (*Patterns, error) {
	if len(weights) != len(p.Weights) {
		return nil, fmt.Errorf("alignment: weight vector length %d, want %d", len(weights), len(p.Weights))
	}
	q := *p
	q.Weights = weights
	return &q, nil
}

// BaseFrequencies computes weighted empirical base frequencies over the
// patterns (equivalent to Alignment.BaseFrequencies on the expanded data).
func (p *Patterns) BaseFrequencies() [bio.NumStates]float64 {
	var counts [bio.NumStates]float64
	for _, row := range p.Data[:p.NumTaxa] {
		for k, m := range row {
			tally(&counts, m, p.Weights[k])
		}
	}
	return frequencies(counts)
}

package alignment

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/bio"
)

// compressNaive is Compress as it was before it looked columns up without
// a key allocation: it allocates one string key per column and grows every
// Data row by append. TestCompressMatchesNaive compares against it.
func compressNaive(a *Alignment) *Patterns {
	nt, ns := a.NumTaxa(), a.NumSites()
	p := &Patterns{NumTaxa: nt, NumSites: ns, Names: a.Names(), Data: make([][]byte, nt)}
	index := make(map[string]int, ns)
	col := make([]byte, nt)
	for j := 0; j < ns; j++ {
		col = a.Column(j, col)
		key := string(col)
		if k, ok := index[key]; ok {
			p.Weights[k]++
			continue
		}
		index[key] = len(p.Weights)
		p.Weights = append(p.Weights, 1)
		for i := 0; i < nt; i++ {
			p.Data[i] = append(p.Data[i], col[i])
		}
	}
	return p
}

// baseFrequenciesNaive is Patterns.BaseFrequencies as it was before it read
// its divisors off a table: it counts each code's bits per character.
func baseFrequenciesNaive(p *Patterns) [bio.NumStates]float64 {
	var counts [bio.NumStates]float64
	for i := 0; i < p.NumTaxa; i++ {
		for k, m := range p.Data[i] {
			bits := 0
			for b := 0; b < bio.NumStates; b++ {
				if m&(1<<b) != 0 {
					bits++
				}
			}
			if bits == 0 || bits == bio.NumStates {
				continue
			}
			w := float64(p.Weights[k]) / float64(bits)
			for b := 0; b < bio.NumStates; b++ {
				if m&(1<<b) != 0 {
					counts[b] += w
				}
			}
		}
	}
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

// TestCompressMatchesNaive compares Compress, and the base frequencies of
// its patterns under random weights, with the naive versions on random
// alignments: ambiguity codes, gaps, duplicated rows and all-invariant
// columns, from one taxon and one column up.
func TestCompressMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		nt, ns := 1+rng.Intn(30), 1+rng.Intn(400)
		alphabet := []byte("ACGT")
		if trial%2 == 1 {
			alphabet = []byte("ACGTACGTRYKMSWBDHVN-?")
		}
		if trial%7 == 0 {
			alphabet = []byte("-") // no information anywhere
		}
		rows := make([][]byte, nt)
		for i := range rows {
			if i > 0 && rng.Intn(4) == 0 {
				rows[i] = rows[rng.Intn(i)] // a duplicated row
				continue
			}
			rows[i] = make([]byte, ns)
			for j := range rows[i] {
				rows[i][j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		for j := 0; j < ns; j++ {
			if rng.Intn(3) == 0 { // an all-invariant column
				for i := range rows {
					rows[i][j] = rows[0][j]
				}
			}
		}
		seqs := make([]*bio.Sequence, nt)
		for i, r := range rows {
			s, err := bio.NewSequence(fmt.Sprintf("t%d", i), string(r))
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = s
		}
		a, err := New(seqs)
		if err != nil {
			t.Fatal(err)
		}
		got, want := Compress(a), compressNaive(a)
		if got.NumTaxa != want.NumTaxa || got.NumSites != want.NumSites || fmt.Sprint(got.Names) != fmt.Sprint(want.Names) ||
			fmt.Sprint(got.Weights) != fmt.Sprint(want.Weights) || len(got.Data) != len(want.Data) {
			t.Fatalf("trial %d (%d x %d): patterns differ from the naive compression", trial, nt, ns)
		}
		for i := range want.Data {
			if !bytes.Equal(got.Data[i], want.Data[i]) {
				t.Fatalf("trial %d: row %d is %v, naive %v", trial, i, got.Data[i], want.Data[i])
			}
		}
		w := make([]int, len(got.Weights))
		for k := range w {
			w[k] = rng.Intn(4) // zeros as in a bootstrap replicate
		}
		for _, q := range []*Patterns{got, {NumTaxa: got.NumTaxa, Data: got.Data, Weights: w}} {
			f, g := q.BaseFrequencies(), baseFrequenciesNaive(q)
			for b := range f {
				if math.Float64bits(f[b]) != math.Float64bits(g[b]) {
					t.Fatalf("trial %d: frequencies %v, naive %v", trial, f, g)
				}
			}
		}
	}
}

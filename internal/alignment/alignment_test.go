package alignment

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"raxmlcell/internal/bio"
)

func mustAlign(t *testing.T, rows map[string]string) *Alignment {
	t.Helper()
	var seqs []*bio.Sequence
	// Deterministic order: sorted by name via fixed list below.
	for _, name := range sortedKeys(rows) {
		s, err := bio.NewSequence(name, rows[name])
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	a, err := New(seqs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

func TestNewValidation(t *testing.T) {
	s1, _ := bio.NewSequence("a", "ACGT")
	s2, _ := bio.NewSequence("b", "ACG")
	if _, err := New([]*bio.Sequence{s1, s2}); err == nil {
		t.Error("unequal lengths accepted")
	}
	s3, _ := bio.NewSequence("a", "ACGT")
	if _, err := New([]*bio.Sequence{s1, s3}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("empty alignment accepted")
	}
	anon, _ := bio.NewSequence("", "ACGT")
	if _, err := New([]*bio.Sequence{anon}); err == nil {
		t.Error("anonymous sequence accepted")
	}
}

func TestCompressBasic(t *testing.T) {
	a := mustAlign(t, map[string]string{
		"t1": "AACA",
		"t2": "CCGC",
		"t3": "GGTG",
	})
	p := Compress(a)
	// Columns: (A,C,G) (A,C,G) (C,G,T) (A,C,G) -> 2 patterns, weights 3 and 1.
	if p.NumPatterns() != 2 {
		t.Fatalf("NumPatterns = %d, want 2", p.NumPatterns())
	}
	if p.Weights[0] != 3 || p.Weights[1] != 1 {
		t.Errorf("Weights = %v, want [3 1]", p.Weights)
	}
	if weightSum(p) != 4 || p.NumSites != 4 {
		t.Errorf("WeightSum=%d NumSites=%d", weightSum(p), p.NumSites)
	}
}

func TestCompressPreservesData(t *testing.T) {
	// Property: expanding patterns by weight recovers per-taxon base counts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nt, ns := 3+rng.Intn(5), 10+rng.Intn(40)
		rows := map[string]string{}
		bases := "ACGT-"
		for i := 0; i < nt; i++ {
			var b strings.Builder
			for j := 0; j < ns; j++ {
				b.WriteByte(bases[rng.Intn(len(bases))])
			}
			rows[string(rune('a'+i))] = b.String()
		}
		var seqs []*bio.Sequence
		for _, name := range sortedKeys(rows) {
			s, _ := bio.NewSequence(name, rows[name])
			seqs = append(seqs, s)
		}
		a, _ := New(seqs)
		p := Compress(a)
		if weightSum(p) != ns {
			return false
		}
		for i, s := range a.Seqs {
			var orig, comp [16]int
			for _, m := range s.Codes {
				orig[m]++
			}
			for k, m := range p.Data[i] {
				comp[m] += p.Weights[k]
			}
			if orig != comp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBaseFrequencies(t *testing.T) {
	a := mustAlign(t, map[string]string{
		"t1": "AAAA",
		"t2": "CCCC",
		"t3": "GGTT",
	})
	f := a.BaseFrequencies()
	want := [4]float64{4.0 / 12, 4.0 / 12, 2.0 / 12, 2.0 / 12}
	for i := range f {
		if math.Abs(f[i]-want[i]) > 1e-9 {
			t.Errorf("freq[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	// Patterns view must agree.
	pf := Compress(a).BaseFrequencies()
	for i := range f {
		if math.Abs(f[i]-pf[i]) > 1e-9 {
			t.Errorf("pattern freq[%d] = %v, want %v", i, pf[i], f[i])
		}
	}
}

func TestBaseFrequenciesAmbiguity(t *testing.T) {
	a := mustAlign(t, map[string]string{
		"t1": "R", // A or G: half mass each
		"t2": "A",
	})
	f := a.BaseFrequencies()
	if math.Abs(f[0]-0.75) > 1e-4 || math.Abs(f[2]-0.25) > 1e-4 {
		t.Errorf("freqs = %v, want A=0.75 G=0.25 (approx, with flooring)", f)
	}
}

func TestBaseFrequenciesAllGaps(t *testing.T) {
	a := mustAlign(t, map[string]string{"t1": "--", "t2": "NN"})
	f := a.BaseFrequencies()
	for i := range f {
		if math.Abs(f[i]-0.25) > 1e-12 {
			t.Errorf("gap-only freq[%d] = %v, want 0.25", i, f[i])
		}
	}
}

func TestWithWeights(t *testing.T) {
	a := mustAlign(t, map[string]string{"t1": "ACGT", "t2": "ACGA"})
	p := Compress(a)
	w := make([]int, p.NumPatterns())
	for i := range w {
		w[i] = 2
	}
	q, err := p.WithWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	if weightSum(q) != 2*p.NumPatterns() {
		t.Errorf("WeightSum = %d", weightSum(q))
	}
	// Original untouched.
	if weightSum(p) != 4 {
		t.Errorf("original mutated: %v", p.Weights)
	}
	if _, err := p.WithWeights([]int{1}); err == nil && p.NumPatterns() != 1 {
		t.Error("bad weight length accepted")
	}
}

func TestBootstrapWeights(t *testing.T) {
	a := mustAlign(t, map[string]string{
		"t1": strings.Repeat("ACGT", 100),
		"t2": strings.Repeat("AGGT", 100),
		"t3": strings.Repeat("ACGA", 100),
	})
	p := Compress(a)
	rng := rand.New(rand.NewSource(42))
	w := BootstrapWeights(p, rng)
	sum := 0
	for _, x := range w {
		if x < 0 {
			t.Fatal("negative weight")
		}
		sum += x
	}
	if sum != p.NumSites {
		t.Fatalf("bootstrap weight sum = %d, want %d", sum, p.NumSites)
	}
	// Deterministic under the same seed.
	w2 := BootstrapWeights(p, rand.New(rand.NewSource(42)))
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("bootstrap not deterministic under fixed seed")
		}
	}
	rep := BootstrapReplicate(p, rng)
	if weightSum(rep) != p.NumSites {
		t.Error("replicate weight sum wrong")
	}
}

func TestBootstrapDistribution(t *testing.T) {
	// With weights [300, 100], pattern 0 should receive ~75% of draws.
	a := mustAlign(t, map[string]string{
		"t1": strings.Repeat("A", 300) + strings.Repeat("C", 100),
		"t2": strings.Repeat("A", 300) + strings.Repeat("G", 100),
	})
	p := Compress(a)
	if p.NumPatterns() != 2 {
		t.Fatalf("patterns = %d", p.NumPatterns())
	}
	rng := rand.New(rand.NewSource(7))
	total0 := 0
	const reps = 200
	for r := 0; r < reps; r++ {
		w := BootstrapWeights(p, rng)
		total0 += w[0]
	}
	mean0 := float64(total0) / reps
	if math.Abs(mean0-300) > 10 {
		t.Errorf("mean weight of heavy pattern = %v, want ~300", mean0)
	}
}

// TestDrawn: a replicate's drawn patterns carry no zero weight, sum to
// NumSites, and are the replicate's own patterns and rows in their order;
// on an alignment that was not resampled Drawn is the alignment itself.
func TestDrawn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := map[string]string{}
	for _, name := range []string{"t1", "t2", "t3", "t4", "t5"} {
		var b strings.Builder
		for j := 0; j < 300; j++ {
			b.WriteByte("ACGT-N"[rng.Intn(6)])
		}
		rows[name] = b.String()
	}
	p := Compress(mustAlign(t, rows))
	if p.Drawn() != p {
		t.Fatal("Drawn copied an alignment with no zero weight")
	}
	for r := 0; r < 20; r++ {
		rep := BootstrapReplicate(p, rng)
		d := rep.Drawn()
		if weightSum(d) != p.NumSites || d.NumSites != p.NumSites {
			t.Fatalf("weights sum to %d (NumSites %d), want %d", weightSum(d), d.NumSites, p.NumSites)
		}
		j := 0
		for k, w := range rep.Weights {
			if w == 0 {
				continue
			}
			if d.Weights[j] != w {
				t.Fatalf("drawn pattern %d has weight %d, want %d", j, d.Weights[j], w)
			}
			for i := range rep.Data {
				if d.Data[i][j] != rep.Data[i][k] {
					t.Fatalf("drawn pattern %d, row %d differs from pattern %d", j, i, k)
				}
			}
			j++
		}
		if j != d.NumPatterns() || d.NumTaxa != p.NumTaxa || len(d.Names) != len(p.Names) {
			t.Fatalf("drawn has %d patterns, want %d", d.NumPatterns(), j)
		}
		if d.Drawn() != d {
			t.Fatal("Drawn not idempotent")
		}
	}
}

// weightSum is the number of alignment columns the patterns stand for.
func weightSum(p *Patterns) int {
	s := 0
	for _, w := range p.Weights {
		s += w
	}
	return s
}

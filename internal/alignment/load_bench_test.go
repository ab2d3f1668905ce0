package alignment_test

import (
	"bytes"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/seqsim"
)

// BenchmarkLoadPatterns times what every benchmark operation does before
// its engine exists: ReadPhylip, Compress and BaseFrequencies on a
// 24 x 10 000 alignment shaped like wide24's inputs.
func BenchmarkLoadPatterns(b *testing.B) {
	p := seqsim.Params{Taxa: 24, Sites: 10000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1}
	a, _, err := seqsim.Generate(p, seqsim.DefaultModel(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := alignment.WritePhylip(&buf, a); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	for b.Loop() {
		a, err := alignment.ReadPhylip(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		alignment.Compress(a).BaseFrequencies()
	}
}

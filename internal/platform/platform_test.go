package platform

import "testing"

func TestMakespanBasics(t *testing.T) {
	p := Platform{Name: "test", Cores: 2, ThreadsPerCor: 2, SearchSeconds: 10, SMTFactor: 1.2}
	cases := []struct {
		b    int
		want float64
	}{
		{1, 10}, // one core, solo
		{2, 10}, // one per core, solo
		{3, 12}, // SMT engaged: ceil(3/4)=1 round at penalty
		{4, 12}, // 4 contexts, one round each
		{8, 24}, // two rounds
		{128, 32 * 12},
	}
	for _, c := range cases {
		got, err := p.Makespan(c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Makespan(%d) = %v, want %v", c.b, got, c.want)
		}
	}
	if _, err := p.Makespan(0); err == nil {
		t.Error("0 searches accepted")
	}
}

func TestMakespanMonotone(t *testing.T) {
	for _, p := range []Platform{Xeon2GHzPair(), Power5()} {
		prev := 0.0
		for b := 1; b <= 128; b *= 2 {
			got, err := p.Makespan(b)
			if err != nil {
				t.Fatal(err)
			}
			if got < prev {
				t.Errorf("%s: makespan decreased at b=%d: %v < %v", p.Name, b, got, prev)
			}
			prev = got
		}
	}
}

func TestPaperRelativeOrdering(t *testing.T) {
	// Figure 3's machine ordering: Xeon slowest, Power5 in the middle.
	xeon, p5 := Xeon2GHzPair(), Power5()
	for _, b := range []int{1, 8, 16, 32, 64, 128} {
		x, err := xeon.Makespan(b)
		if err != nil {
			t.Fatal(err)
		}
		p, err := p5.Makespan(b)
		if err != nil {
			t.Fatal(err)
		}
		if x <= p {
			t.Errorf("b=%d: Xeon (%.1fs) not slower than Power5 (%.1fs)", b, x, p)
		}
		if ratio := x / p; ratio < 1.5 || ratio > 3 {
			t.Errorf("b=%d: Xeon/Power5 = %.2f, expected ~2", b, ratio)
		}
	}
}

func TestContexts(t *testing.T) {
	if p := Power5(); p.Contexts() != 4 {
		t.Errorf("Power5 contexts = %d", p.Contexts())
	}
}

package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegIncGammaPKnownValues(t *testing.T) {
	// P(1,x) = 1 - e^{-x} (exponential CDF).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := RegIncGammaP(1, x)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%g) = %.15f, want %.15f", x, got, want)
		}
	}
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		got, err := RegIncGammaP(0.5, x)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Erf(math.Sqrt(x))
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5,%g) = %.15f, want %.15f", x, got, want)
		}
	}
	// Boundaries and errors.
	if v, _ := RegIncGammaP(2, 0); v != 0 {
		t.Error("P(a,0) != 0")
	}
	if _, err := RegIncGammaP(0, 1); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := RegIncGammaP(1, -1); err == nil {
		t.Error("x<0 accepted")
	}
}

func TestRegIncGammaPMonotone(t *testing.T) {
	f := func(rawA, rawX1, rawX2 uint16) bool {
		a := 0.05 + float64(rawA%1000)/100 // 0.05..10.04
		x1 := float64(rawX1%2000) / 100
		x2 := x1 + 0.01 + float64(rawX2%1000)/100
		p1, err1 := RegIncGammaP(a, x1)
		p2, err2 := RegIncGammaP(a, x2)
		return err1 == nil && err2 == nil && p2 >= p1 && p1 >= 0 && p2 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInvRegIncGammaPRoundTrip(t *testing.T) {
	for _, a := range []float64{0.05, 0.3, 0.5, 1, 2.5, 10, 50} {
		for _, p := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999} {
			x, err := InvRegIncGammaP(a, p)
			if err != nil {
				t.Fatalf("a=%g p=%g: %v", a, p, err)
			}
			back, err := RegIncGammaP(a, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(back-p) > 1e-9 {
				t.Errorf("a=%g: P(a, InvP(%g)) = %g", a, p, back)
			}
		}
	}
	if x, _ := InvRegIncGammaP(2, 0); x != 0 {
		t.Error("InvP(a,0) != 0")
	}
	if _, err := InvRegIncGammaP(2, 1); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := InvRegIncGammaP(-1, 0.5); err == nil {
		t.Error("a<0 accepted")
	}
}

func TestDiscreteGammaMeanOne(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.5, 1, 2, 5, 25} {
		for _, k := range []int{1, 2, 4, 8} {
			rates, err := DiscreteGamma(alpha, k)
			if err != nil {
				t.Fatalf("alpha=%g k=%d: %v", alpha, k, err)
			}
			if len(rates) != k {
				t.Fatalf("len = %d", len(rates))
			}
			sum := 0.0
			for i, r := range rates {
				if r <= 0 {
					t.Errorf("alpha=%g k=%d: rate[%d] = %g", alpha, k, i, r)
				}
				if i > 0 && rates[i] <= rates[i-1] {
					t.Errorf("alpha=%g k=%d: rates not increasing: %v", alpha, k, rates)
				}
				sum += r
			}
			if math.Abs(sum/float64(k)-1) > 1e-9 {
				t.Errorf("alpha=%g k=%d: mean rate = %g, want 1", alpha, k, sum/float64(k))
			}
		}
	}
}

func TestDiscreteGammaSpread(t *testing.T) {
	// Smaller alpha means more heterogeneity: wider category spread.
	lo, err := DiscreteGamma(0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := DiscreteGamma(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lo[3]-lo[0] <= hi[3]-hi[0] {
		t.Errorf("spread(alpha=0.2)=%g not wider than spread(alpha=20)=%g", lo[3]-lo[0], hi[3]-hi[0])
	}
	if _, err := DiscreteGamma(0, 4); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := DiscreteGamma(1, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestJacobiIdentityAndDiagonal(t *testing.T) {
	vals, vecs, err := JacobiEigen([][]float64{{3, 0}, {0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	found := map[float64]bool{}
	for _, v := range vals {
		found[math.Round(v)] = true
	}
	if !found[3] || !found[-1] {
		t.Errorf("eigenvalues = %v", vals)
	}
	_ = vecs
}

func TestJacobiReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a[i][j], a[j][i] = v, v
			}
		}
		vals, vecs, err := JacobiEigen(a)
		if err != nil {
			return false
		}
		// Check A·v_k = λ_k·v_k for each eigenpair.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				av := 0.0
				for j := 0; j < n; j++ {
					av += a[i][j] * vecs[j][k]
				}
				if math.Abs(av-vals[k]*vecs[i][k]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJacobiErrors(t *testing.T) {
	if _, _, err := JacobiEigen(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, _, err := JacobiEigen([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, _, err := JacobiEigen([][]float64{{1, 2}}); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestGTRJukesCantorAnalytic(t *testing.T) {
	g := jc69(t)
	var p [4][4]float64
	for _, tt := range []float64{0.01, 0.1, 0.5, 1, 3} {
		g.TransitionMatrix(tt, 1, &p)
		e := math.Exp(-4.0 * tt / 3.0)
		wantDiag := 0.25 + 0.75*e
		wantOff := 0.25 - 0.25*e
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := wantOff
				if i == j {
					want = wantDiag
				}
				if math.Abs(p[i][j]-want) > 1e-10 {
					t.Fatalf("t=%g: P[%d][%d] = %.12f, want %.12f", tt, i, j, p[i][j], want)
				}
			}
		}
	}
}

func randomGTR(rng *rand.Rand) *GTR {
	var rates [6]float64
	for i := range rates {
		rates[i] = 0.2 + 4*rng.Float64()
	}
	var freqs [4]float64
	sum := 0.0
	for i := range freqs {
		freqs[i] = 0.1 + rng.Float64()
		sum += freqs[i]
	}
	for i := range freqs {
		freqs[i] /= sum
	}
	g, err := NewGTR(rates, freqs)
	if err != nil {
		panic(err)
	}
	return g
}

func TestGTRTransitionMatrixProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := randomGTR(rng)
		var p [4][4]float64
		for _, tt := range []float64{1e-8, 0.05, 0.3, 1.0, 5.0} {
			g.TransitionMatrix(tt, 1, &p)
			for i := 0; i < 4; i++ {
				row := 0.0
				for j := 0; j < 4; j++ {
					if p[i][j] < 0 || p[i][j] > 1+1e-9 {
						t.Fatalf("P[%d][%d] = %g out of [0,1]", i, j, p[i][j])
					}
					row += p[i][j]
				}
				if math.Abs(row-1) > 1e-9 {
					t.Fatalf("row %d sums to %.12f at t=%g", i, row, tt)
				}
			}
			// Detailed balance: pi_i P_ij = pi_j P_ji (time reversibility).
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if math.Abs(g.Freqs[i]*p[i][j]-g.Freqs[j]*p[j][i]) > 1e-9 {
						t.Fatalf("detailed balance violated at (%d,%d), t=%g", i, j, tt)
					}
				}
			}
		}
		// t -> 0 gives identity; t -> inf gives stationary rows.
		g.TransitionMatrix(1e-12, 1, &p)
		for i := 0; i < 4; i++ {
			if math.Abs(p[i][i]-1) > 1e-6 {
				t.Fatalf("P(0) not identity: P[%d][%d]=%g", i, i, p[i][i])
			}
		}
		g.TransitionMatrix(500, 1, &p)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if math.Abs(p[i][j]-g.Freqs[j]) > 1e-6 {
					t.Fatalf("P(inf)[%d][%d] = %g, want pi=%g", i, j, p[i][j], g.Freqs[j])
				}
			}
		}
	}
}

func TestGTRChapmanKolmogorov(t *testing.T) {
	// P(s+t) = P(s)·P(t).
	rng := rand.New(rand.NewSource(99))
	g := randomGTR(rng)
	var ps, pt, pst [4][4]float64
	s, tt := 0.17, 0.42
	g.TransitionMatrix(s, 1, &ps)
	g.TransitionMatrix(tt, 1, &pt)
	g.TransitionMatrix(s+tt, 1, &pst)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			prod := 0.0
			for k := 0; k < 4; k++ {
				prod += ps[i][k] * pt[k][j]
			}
			if math.Abs(prod-pst[i][j]) > 1e-10 {
				t.Fatalf("Chapman-Kolmogorov violated at (%d,%d): %g vs %g", i, j, prod, pst[i][j])
			}
		}
	}
}

func TestGTRRateMultiplier(t *testing.T) {
	// P(t, rate r) == P(t*r, rate 1).
	g := jc69(t)
	var a, b [4][4]float64
	g.TransitionMatrix(0.3, 2.5, &a)
	g.TransitionMatrix(0.75, 1, &b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(a[i][j]-b[i][j]) > 1e-12 {
				t.Fatalf("rate multiplier mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewGTRValidation(t *testing.T) {
	ones := [6]float64{1, 1, 1, 1, 1, 1}
	if _, err := NewGTR(ones, [4]float64{0.5, 0.5, 0.5, 0.5}); err == nil {
		t.Error("frequencies summing to 2 accepted")
	}
	if _, err := NewGTR(ones, [4]float64{1, 0, 0, 0}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := NewGTR([6]float64{1, 1, -1, 1, 1, 1}, [4]float64{0.25, 0.25, 0.25, 0.25}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestNewModel(t *testing.T) {
	g := jc69(t)
	m, err := NewModel(g, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCats() != 4 {
		t.Errorf("cats = %d", m.NumCats())
	}
	m2, err := m.WithAlpha(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Alpha != 2.0 || m2.NumCats() != 4 || m.Alpha != 0.5 {
		t.Error("WithAlpha wrong or mutated original")
	}
	flat, err := NewModel(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumCats() != 1 || flat.Cats[0] != 1 {
		t.Errorf("alpha=0 model cats = %v", flat.Cats)
	}
	if _, err := NewModel(nil, 1, 4); err == nil {
		t.Error("nil GTR accepted")
	}
}

func TestEigenDecompositionConsistency(t *testing.T) {
	// V · VInv must be the identity.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomGTR(rng)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				s := 0.0
				for k := 0; k < 4; k++ {
					s += g.V[i][k] * g.VInv[k][j]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(s-want) > 1e-9 {
					t.Fatalf("V·VInv[%d][%d] = %g", i, j, s)
				}
			}
		}
		// One eigenvalue must be ~0 (the stationary mode), others negative.
		zero, neg := 0, 0
		for _, l := range g.Lambda {
			if math.Abs(l) < 1e-9 {
				zero++
			} else if l < 0 {
				neg++
			}
		}
		if zero != 1 || neg != 3 {
			t.Fatalf("eigenvalue signature: %v", g.Lambda)
		}
	}
}

// jc69 is the Jukes-Cantor special case (all rates and frequencies equal),
// the analytically verifiable reference model.
func jc69(t *testing.T) *GTR {
	t.Helper()
	g, err := NewGTR([6]float64{1, 1, 1, 1, 1, 1}, [NumStates]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

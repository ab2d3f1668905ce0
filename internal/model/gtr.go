package model

import (
	"fmt"
	"math"

	"raxmlcell/internal/bio"
)

// NumStates aliases the DNA state count for readability inside this package.
const NumStates = bio.NumStates

// GTR is the general time-reversible nucleotide substitution model with its
// precomputed eigensystem. Rate order is AC, AG, AT, CG, CT, GT with GT
// conventionally fixed to 1. The rate matrix is normalized so the expected
// substitution rate at equilibrium is 1, making branch lengths expected
// substitutions per site.
type GTR struct {
	Rates [6]float64
	Freqs [NumStates]float64

	// Eigensystem of the normalized Q: Q = V · diag(Lambda) · VInv.
	Lambda [NumStates]float64
	V      [NumStates][NumStates]float64
	VInv   [NumStates][NumStates]float64
}

// rateIndex maps an unordered state pair to its slot in Rates.
func rateIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	switch {
	case i == 0 && j == 1:
		return 0 // AC
	case i == 0 && j == 2:
		return 1 // AG
	case i == 0 && j == 3:
		return 2 // AT
	case i == 1 && j == 2:
		return 3 // CG
	case i == 1 && j == 3:
		return 4 // CT
	default:
		return 5 // GT
	}
}

// NewGTR builds and diagonalizes a GTR model.
func NewGTR(rates [6]float64, freqs [NumStates]float64) (*GTR, error) {
	sum := 0.0
	for i, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("model: base frequency %d must be positive, got %g", i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("model: base frequencies sum to %g, want 1", sum)
	}
	for i, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("model: substitution rate %d must be positive, got %g", i, r)
		}
	}

	g := &GTR{Rates: rates, Freqs: freqs}

	// Build Q with Q_ij = s_ij * pi_j, diagonal = -rowsum, then normalize so
	// that -sum_i pi_i Q_ii = 1.
	var q [NumStates][NumStates]float64
	for i := 0; i < NumStates; i++ {
		rowSum := 0.0
		for j := 0; j < NumStates; j++ {
			if i == j {
				continue
			}
			q[i][j] = rates[rateIndex(i, j)] * freqs[j]
			rowSum += q[i][j]
		}
		q[i][i] = -rowSum
	}
	scale := 0.0
	for i := 0; i < NumStates; i++ {
		scale -= freqs[i] * q[i][i]
	}
	if scale <= 0 {
		return nil, fmt.Errorf("model: degenerate rate matrix")
	}
	for i := range q {
		for j := range q[i] {
			q[i][j] /= scale
		}
	}

	// Symmetrize: B = D Q D^{-1} with D = diag(sqrt(pi)); B_ij =
	// s_ij sqrt(pi_i pi_j) (after normalization), which Jacobi can handle.
	b := make([][]float64, NumStates)
	var sqrtPi, invSqrtPi [NumStates]float64
	for i := 0; i < NumStates; i++ {
		sqrtPi[i] = math.Sqrt(freqs[i])
		invSqrtPi[i] = 1 / sqrtPi[i]
		b[i] = make([]float64, NumStates)
	}
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			b[i][j] = sqrtPi[i] * q[i][j] * invSqrtPi[j]
		}
	}
	// Force exact symmetry against rounding before Jacobi.
	for i := 0; i < NumStates; i++ {
		for j := i + 1; j < NumStates; j++ {
			m := (b[i][j] + b[j][i]) / 2
			b[i][j], b[j][i] = m, m
		}
	}

	values, vectors, err := JacobiEigen(b)
	if err != nil {
		return nil, err
	}
	// Q = D^{-1} U Λ U^T D, so V = D^{-1} U and VInv = U^T D.
	for i := 0; i < NumStates; i++ {
		g.Lambda[i] = values[i]
		for j := 0; j < NumStates; j++ {
			g.V[i][j] = invSqrtPi[i] * vectors[i][j]
			g.VInv[i][j] = vectors[j][i] * sqrtPi[j]
		}
	}
	return g, nil
}

// TransitionMatrix fills p with P(t·rate) = V·exp(Λ·t·rate)·VInv, the
// substitution probability matrix for a branch of length t under rate
// multiplier rate. This is the "small loop" computation of the paper's
// newview (the per-category transition probability matrices).
func (g *GTR) TransitionMatrix(t, rate float64, p *[NumStates][NumStates]float64) {
	var expl [NumStates]float64
	tr := t * rate
	for k := 0; k < NumStates; k++ {
		expl[k] = math.Exp(g.Lambda[k] * tr)
	}
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			s := 0.0
			for k := 0; k < NumStates; k++ {
				s += g.V[i][k] * expl[k] * g.VInv[k][j]
			}
			// Clamp tiny negative round-off; probabilities must be >= 0.
			if s < 0 {
				s = 0
			}
			p[i][j] = s
		}
	}
}

// Model couples a GTR substitution model with a rate-heterogeneity model:
// either discrete Gamma (every site averages over Cats) or CAT (PatCat
// assigns each site pattern exactly one of Cats; see NewCATModel). It is
// the unit the likelihood kernels consume.
type Model struct {
	GTR   *GTR
	Alpha float64   // Gamma shape; <= 0 means "no rate heterogeneity"
	Cats  []float64 // per-category rate multipliers, mean 1
	// PatCat, when non-nil, switches the model to CAT semantics:
	// PatCat[pattern] indexes into Cats.
	PatCat []int
}

// NewModel builds a GTR+Γ model with k rate categories. alpha <= 0 disables
// rate heterogeneity (one category at rate 1).
func NewModel(g *GTR, alpha float64, k int) (*Model, error) {
	if g == nil {
		return nil, fmt.Errorf("model: nil GTR")
	}
	if alpha <= 0 || k <= 1 {
		return &Model{GTR: g, Alpha: 0, Cats: []float64{1}}, nil
	}
	cats, err := DiscreteGamma(alpha, k)
	if err != nil {
		return nil, err
	}
	return &Model{GTR: g, Alpha: alpha, Cats: cats}, nil
}

// NumCats returns the number of rate categories.
func (m *Model) NumCats() int { return len(m.Cats) }

// WithAlpha returns a model identical to m but with a new Gamma shape,
// re-discretized over the same category count. Used by the alpha optimizer.
func (m *Model) WithAlpha(alpha float64) (*Model, error) {
	return NewModel(m.GTR, alpha, len(m.Cats))
}

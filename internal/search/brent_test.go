package search

import (
	"errors"
	"math"
	"testing"
)

// TestBrentMax checks the maximiser on functions with known maxima: the
// result is within 2·tol of the true maximiser, is one of the points
// evaluated (never worse than the start), costs far fewer evaluations than
// golden section alone would, and `there` says whether the last evaluation
// was at the returned point.
func TestBrentMax(t *testing.T) {
	cases := []struct {
		name        string
		f           func(float64) float64
		a, b, x0    float64
		argmax, tol float64
		maxEvals    int
	}{
		{"parabola", func(x float64) float64 { return -(x - 0.3) * (x - 0.3) }, -4, 4, 0, 0.3, 1e-3, 8},
		{"alpha-like", func(x float64) float64 { return -math.Cosh(0.8*(x+1.1)) - 0.1*x }, math.Log(0.02), math.Log(50), 0, -1.2558, 1e-2, 12},
		{"start at the maximum", func(x float64) float64 { return -math.Abs(x) }, -1.5, 1.5, 0, 0, 1e-2, 12},
		{"maximum on the lower bound", func(x float64) float64 { return -x }, 1, 5, 3, 1, 1e-3, 30},
		{"maximum on the upper bound", func(x float64) float64 { return x * x }, 1, 5, 3, 5, 1e-3, 30},
	}
	for _, tc := range cases {
		var evals int
		var last float64
		best := tc.f(tc.x0)
		f := func(x float64) (float64, error) {
			if x < tc.a || x > tc.b {
				t.Errorf("%s: evaluated %g outside [%g, %g]", tc.name, x, tc.a, tc.b)
			}
			evals++
			last = x
			v := tc.f(x)
			best = math.Max(best, v)
			return v, nil
		}
		x, fx, there, err := brentMax(f, tc.a, tc.b, tc.x0, tc.f(tc.x0), tc.tol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x-tc.argmax) > 2*tc.tol+1e-4 {
			t.Errorf("%s: maximiser %g, want %g within %g", tc.name, x, tc.argmax, 2*tc.tol)
		}
		if fx != tc.f(x) || fx != best {
			t.Errorf("%s: returned value %g, f(x) = %g, best evaluated %g", tc.name, fx, tc.f(x), best)
		}
		if evals == 0 || evals > tc.maxEvals {
			t.Errorf("%s: %d evaluations, want 1..%d", tc.name, evals, tc.maxEvals)
		}
		if there != (last == x) {
			t.Errorf("%s: there=%v but last evaluation at %g and result %g", tc.name, there, last, x)
		}
	}
}

func TestBrentMaxPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	f := func(x float64) (float64, error) {
		if calls++; calls == 3 {
			return 0, boom
		}
		return -x * x, nil
	}
	if _, _, there, err := brentMax(f, -2, 2, 1, -1, 1e-3); !errors.Is(err, boom) || there || calls != 3 {
		t.Errorf("got there=%v err=%v after %d calls, want the objective's error from the third", there, err, calls)
	}
}

package search

import "math"

// brentMaxEvals bounds the objective evaluations of one brentMax call; the
// golden-section fallback alone needs about 20 to shrink the widest bracket
// the optimisers use (alpha's [0.02, 50] in log space) to their tolerances.
const brentMaxEvals = 64

// brentMax maximises f over [a, b] by Brent's method: successive parabolic
// interpolation through the three best points, falling back to a
// golden-section step whenever the parabola is not trusted. It starts at x,
// whose value fx the caller already knows, and returns the best point
// evaluated and its value, so the result is never worse than the start.
// there reports whether the last call of f was at the returned point (the
// caller's own evaluation of x counting as the first): an objective that
// works by side effect (setting the engine's model) is then already where
// the caller wants it and needs no closing call.
//
// tol is the accuracy in x a golden-section search run down to a bracket of
// that width would give: the search stops once the maximiser is bracketed
// within tol/2 of the returned point, and no two evaluations are closer
// than tol/4. Every evaluation of f here is a full-tree likelihood
// recomputation, which is why the optimisers share one implementation that
// makes few of them.
func brentMax(f func(float64) (float64, error), a, b, x, fx, tol float64) (float64, float64, bool, error) {
	const golden = 0.3819660112501051 // (3 - √5) / 2

	tol /= 4 // from here on, the smallest step
	there := true

	// w and v are the second and third best points so far (none yet, so
	// they rank below anything), d is the last step and e the one before.
	w, v := x, x
	fw, fv := math.Inf(-1), math.Inf(-1)
	var d, e float64
	for evals := 0; evals < brentMaxEvals; evals++ {
		mid := 0.5 * (a + b)
		if math.Abs(x-mid) <= 2*tol-0.5*(b-a) {
			break
		}
		parabolic := false
		if evals >= 2 && math.Abs(e) > tol {
			// Vertex of the parabola through (x, fx), (w, fw), (v, fv).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			// Take the step only if it lands inside the bracket and is
			// less than half the step before last.
			if math.Abs(p) < math.Abs(0.5*q*e) && p > q*(a-x) && p < q*(b-x) {
				parabolic = true
				e, d = d, p/q
				if u := x + d; u-a < 2*tol || b-u < 2*tol {
					d = math.Copysign(tol, mid-x)
				}
			}
		}
		if !parabolic {
			// Golden section into the larger half of the bracket.
			if x >= mid {
				e = a - x
			} else {
				e = b - x
			}
			d = golden * e
		}
		u := x + d
		if math.Abs(d) < tol {
			u = x + math.Copysign(tol, d)
		}
		fu, err := f(u)
		if err != nil {
			return x, fx, false, err
		}
		there = fu > fx
		if there {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
			continue
		}
		if u < x {
			a = u
		} else {
			b = u
		}
		if fu >= fw {
			v, w = w, u
			fv, fw = fw, fu
		} else if fu >= fv {
			v, fv = u, fu
		}
	}
	return x, fx, there, nil
}

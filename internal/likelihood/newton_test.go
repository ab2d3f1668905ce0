package likelihood

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// prepareBranch does what MakeNewz does before its first Newton iteration —
// both end vectors current, sum table and λr products built — so the tests
// can drive the two passes directly on the engine's primary context.
func prepareBranch(e *Engine, p *phylotree.Node) (scaleConst float64) {
	q := p.Back
	if p.IsTip() {
		p, q = q, p
	}
	e.NewView(p)
	e.NewView(q)
	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
	}
	return e.buildSumTable(e.slotVec(p), qData, e.slotVec(q))
}

// catModelFor assigns the patterns round-robin to four CAT rates.
func catModelFor(t *testing.T, rng *rand.Rand, pat *alignment.Patterns) *model.Model {
	t.Helper()
	assign := make([]int, pat.NumPatterns())
	for i := range assign {
		assign[i] = i % 4
	}
	cat, err := model.NewCATModel(randomModel(t, rng, 1).GTR, []float64{0.2, 0.7, 1.3, 2.8}, assign, pat.Weights)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// newtonProbePoints spans the branch-length domain, both clamps included.
var newtonProbePoints = []float64{phylotree.MinBranchLength, 1e-4, 0.05, 0.7, 4, phylotree.MaxBranchLength}

// TestNewtonPassesMatchScalar drives the derivative pass and the value pass
// of every backend against the scalar reference on the same sum table, for
// the Gamma and CAT layouts on a three-block alignment, at GOMAXPROCS 1 and
// 4: d1, d2, the value and the underflow count must agree bit for bit, and
// the meters must be equal — the passes are restructured loops, not
// approximations — and what a backend returns at 4 is what it returned at 1,
// whoever ran which block. Three patterns are zeroed in the table so the
// underflow clamp is on the compared path.
func TestNewtonPassesMatchScalar(t *testing.T) {
	for _, layout := range []string{"gamma", "cat"} {
		var serial []float64 // every alt result at GOMAXPROCS 1, in order
		for _, procs := range []int{1, 4} {
			restore := setProcs(procs)
			var results []float64
			rng := rand.New(rand.NewSource(611))
			pat := patternsOfCount(t, rng, 12, threeBlocks)
			m := randomModel(t, rng, 4)
			if layout == "cat" {
				m = catModelFor(t, rng, pat)
			}
			tr := randomTreeFor(t, rng, pat)
			edges := tr.Edges()

			build := func(backend string) *Engine {
				e, err := NewEngine(pat, m, Config{Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			ref := build("scalar")
			for _, name := range Backends() {
				if name == "scalar" {
					continue
				}
				alt := build(name)
				for _, ei := range []int{0, 5, len(edges) - 1} { // tip and inner branches
					scR := prepareBranch(ref, edges[ei])
					scA := prepareBranch(alt, edges[ei])
					if scR != scA {
						t.Fatalf("%s/%s/procs=%d edge %d: scale constant %v != %v", layout, name, procs, ei, scA, scR)
					}
					results = append(results, scA)
					stride := ref.ncat * ns
					for _, p := range []int{0, 33, ref.npat - 1} {
						for k := p * stride; k < (p+1)*stride; k++ {
							ref.scr.sumTab[k], alt.scr.sumTab[k] = 0, 0
						}
					}
					for _, z := range newtonProbePoints {
						d1R, d2R := ref.newtonDerivs(z)
						d1A, d2A := alt.newtonDerivs(z)
						vR, vA := ref.newtonValue(z), alt.newtonValue(z)
						if d1R != d1A || d2R != d2A || vR != vA {
							t.Fatalf("%s/%s/procs=%d edge %d z=%g: (d1, d2, value) = (%.17g, %.17g, %.17g), scalar (%.17g, %.17g, %.17g)",
								layout, name, procs, ei, z, d1A, d2A, vA, d1R, d2R, vR)
						}
						results = append(results, d1A, d2A, vA)
					}
				}
				if ref.UnderflowSites() == 0 || ref.UnderflowSites() != alt.UnderflowSites() {
					t.Errorf("%s/%s/procs=%d: underflow sites %d, scalar %d (want equal and > 0)",
						layout, name, procs, alt.UnderflowSites(), ref.UnderflowSites())
				}
				if ref.Meter != alt.Meter {
					t.Errorf("%s/%s/procs=%d: meters diverge:\n scalar %s\n %s %s",
						layout, name, procs, ref.Meter.String(), name, alt.Meter.String())
				}
				ref.Meter.Reset()
				ref.underflowSites = 0
			}
			restore()
			if serial == nil {
				serial = results
			} else if !slices.Equal(serial, results) {
				t.Errorf("%s: the passes return other bits at GOMAXPROCS %d than at 1", layout, procs)
			}
		}
	}
}

// TestNewtonPassesAreDerivativesOfValue pins what the two passes compute
// independently of any backend comparison: the value pass plus the scaling
// constant is the tree log-likelihood at that branch length, and d1, d2 are
// its first and second derivatives (central differences).
func TestNewtonPassesAreDerivativesOfValue(t *testing.T) {
	rng := rand.New(rand.NewSource(612))
	pat := randomPatterns(t, rng, 10, 200)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	for _, backend := range Backends() {
		eng, err := NewEngine(pat, m, Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		for _, edge := range []*phylotree.Node{tr.Edges()[1], tr.Edges()[6]} {
			want, err := eng.Evaluate(edge)
			if err != nil {
				t.Fatal(err)
			}
			scaleConst := prepareBranch(eng, edge)
			if got := eng.newtonValue(edge.Z) + scaleConst; math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s: value pass %.12f != Evaluate %.12f", backend, got, want)
			}
			const h = 1e-5
			for _, z := range []float64{0.01, 0.2, 1.5} {
				d1, d2 := eng.newtonDerivs(z)
				fd1 := (eng.newtonValue(z+h) - eng.newtonValue(z-h)) / (2 * h)
				d1p, _ := eng.newtonDerivs(z + h)
				d1m, _ := eng.newtonDerivs(z - h)
				fd2 := (d1p - d1m) / (2 * h)
				if math.Abs(d1-fd1) > 1e-5*(1+math.Abs(d1)) || math.Abs(d2-fd2) > 1e-5*(1+math.Abs(d2)) {
					t.Errorf("%s z=%g: (d1, d2) = (%g, %g), finite differences (%g, %g)", backend, z, d1, d2, fd1, fd2)
				}
			}
		}
	}
}

// solveStarts are the branch lengths the robustness test starts solves
// from: both clamps, near-zero, ordinary and saturated lengths.
var solveStarts = []float64{phylotree.MinBranchLength, 1e-6, 1e-3, 0.05, 0.4, 3, phylotree.MaxBranchLength}

// TestNewtonSolveNeverBelowEntry is the robustness gate for taking the
// value once per solve instead of tracking the best iterate: over random
// trees, models, layouts and branches — starts on both clamps, near zero,
// saturated, and outside the concave region — MakeNewz and
// Engine.InsertionScore never return a point whose log-likelihood is below
// the entry point's by more than 1e-9·|logL|, nor MakeNewzTo by more than
// that or its tolerance, the log-likelihood MakeNewz reports is the tree's
// at the length it stored, and a solved candidate scores no lower than its
// own prescore, which is the entry point valued by evaluate instead of from
// the sum table.
func TestNewtonSolveNeverBelowEntry(t *testing.T) {
	var solves, nonConcave, endMin, endMax, toMin, toMax int
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		nt := 5 + rng.Intn(10)
		var pat *alignment.Patterns
		if trial%2 == 0 {
			// Sequences evolved on a tree: branch optima inside the domain.
			a, _, err := seqsim.Generate(seqsim.Params{Taxa: nt, Sites: 300, MeanBranch: 0.1, Alpha: 0.8}, seqsim.DefaultModel(), rng)
			if err != nil {
				t.Fatal(err)
			}
			pat = alignment.Compress(a)
		} else {
			// Unrelated sequences: every branch wants to be saturated.
			pat = randomPatterns(t, rng, nt, 120)
		}
		m := randomModel(t, rng, 1+rng.Intn(4))
		if trial%5 == 4 {
			m = catModelFor(t, rng, pat)
		}
		tr := randomTreeFor(t, rng, pat)
		for _, e := range tr.Edges() {
			if rng.Intn(3) == 0 {
				e.SetZ(solveStarts[rng.Intn(len(solveStarts))])
			}
		}
		eng, err := NewEngine(pat, m, Config{Backend: Backends()[trial%len(Backends())]})
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachTree(tr) // the scoring below trusts the slots across the Prune

		for _, edge := range tr.Edges() {
			z0 := solveStarts[rng.Intn(len(solveStarts))]
			edge.SetZ(z0)
			entry, err := eng.Evaluate(edge)
			if err != nil {
				t.Fatal(err)
			}
			z, ll, err := eng.MakeNewz(edge)
			if err != nil {
				t.Fatal(err)
			}
			solves++
			if _, d2 := eng.newtonDerivs(z0); d2 >= 0 {
				nonConcave++
			}
			switch z {
			case phylotree.MinBranchLength:
				endMin++
			case phylotree.MaxBranchLength:
				endMax++
			}
			if ll < entry-1e-9*math.Abs(entry) {
				t.Errorf("trial %d: MakeNewz from z0=%g returned z=%g logL %.10f below the entry point's %.10f", trial, z0, z, ll, entry)
			}
			at, err := eng.Evaluate(edge)
			if err != nil {
				t.Fatal(err)
			}
			if edge.Z != z || math.Abs(at-ll) > 1e-9*math.Abs(at) {
				t.Errorf("trial %d: MakeNewz reported (%g, %.10f), tree holds %g at %.10f", trial, z, ll, edge.Z, at)
			}

			// Where logL is flat — saturated branches — the quadratic model
			// says the gain left is below a loose tolerance well short of
			// the maximum, so there a solve may end up to about the
			// tolerance below its entry; smoothing asks for 1e-4 to 1e-3.
			edge.SetZ(z0)
			tol := []float64{0, 1e-4, 1e-3}[rng.Intn(3)]
			if z, err = eng.MakeNewzTo(edge, tol); err != nil {
				t.Fatal(err)
			}
			solves++
			switch z {
			case phylotree.MinBranchLength:
				toMin++
			case phylotree.MaxBranchLength:
				toMax++
			}
			if at, err = eng.Evaluate(edge); err != nil {
				t.Fatal(err)
			}
			if edge.Z != z || at < entry-max(1e-9*math.Abs(entry), tol) {
				t.Errorf("trial %d: MakeNewzTo(%g) from z0=%g returned z=%g, tree holds %g at logL %.10f, entry point %.10f", trial, tol, z0, z, edge.Z, at, entry)
			}
		}

		// Lazy-SPR scoring: the context's table still holds the scored
		// branch after the call, so both points are valued from it.
		var sub *phylotree.Node
		for _, e := range tr.Edges() {
			if !e.IsTip() && !e.Back.IsTip() {
				sub = e
				break
			}
		}
		if sub == nil {
			continue
		}
		ps, err := tr.Prune(sub)
		if err != nil {
			t.Fatal(err)
		}
		var across Across
		for _, cand := range tr.Edges() {
			if cand.Back == nil {
				continue
			}
			z0 := solveStarts[rng.Intn(len(solveStarts))]
			if err := eng.CarryAcross(&across, ps.P, z0); err != nil {
				t.Fatal(err)
			}
			pre, err := eng.Prescore(cand, &across)
			if err != nil {
				t.Fatal(err)
			}
			z, ll, err := eng.InsertionScore(cand, ps.P, z0)
			if err != nil {
				t.Fatal(err)
			}
			solves++
			if ll < pre-1e-9*math.Abs(ll) {
				t.Errorf("trial %d: InsertionScore from z0=%g returned z=%g logL %.10f, below the candidate's prescore %.10f", trial, z0, z, ll, pre)
			}
			entry, got := eng.newtonValue(z0), eng.newtonValue(z)
			if got < entry-1e-9*math.Abs(ll) || math.IsNaN(ll) {
				t.Errorf("trial %d: InsertionScore from z0=%g returned z=%g logL %.10f, %.3g below the entry point", trial, z0, z, ll, entry-got)
			}
		}
		if err := tr.Undo(ps); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d solves: %d MakeNewz started outside the concave region, %d ended on the lower clamp, %d on the upper (MakeNewzTo: %d, %d)",
		solves, nonConcave, endMin, endMax, toMin, toMax)
	if nonConcave == 0 || endMin == 0 || endMax == 0 || toMin == 0 || toMax == 0 {
		t.Errorf("test lost its coverage: %d non-concave starts, %d and %d lower-clamp ends, %d and %d upper-clamp ends (want all > 0)",
			nonConcave, endMin, toMin, endMax, toMax)
	}
}

// TestMakeNewzToMatchesMakeNewz: at newtonGainTol a length-only solve is
// the full solve without the value pass nobody reads. Over sweeps of random
// trees — Gamma and CAT, every backend, one and two blocks, starts on both
// clamps — every length has the bits MakeNewz gives it, and the two meters
// are equal but for what the skipped value passes count: per pass one log
// per pattern, the e0 block's exponentials and the pass's multiplications
// and additions.
func TestMakeNewzToMatchesMakeNewz(t *testing.T) {
	var solves, skipped uint64
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(7200 + trial)))
		pat := patternsOfCount(t, rng, 6+rng.Intn(8), []int{60, 700}[trial%2])
		m := randomModel(t, rng, 1+3*(trial%2))
		if trial%4 == 3 {
			m = catModelFor(t, rng, pat)
		}
		tr := randomTreeFor(t, rng, pat)
		edges := tr.Edges()
		for _, e := range edges {
			if rng.Intn(3) == 0 {
				e.SetZ(solveStarts[rng.Intn(len(solveStarts))])
			}
		}
		backend := Backends()[trial%len(Backends())]
		var engs [2]*Engine
		var trees [2]*phylotree.Tree
		for i := range engs {
			var err error
			if engs[i], err = NewEngine(pat, m, Config{Backend: backend}); err != nil {
				t.Fatal(err)
			}
			trees[i] = tr.Clone()
			engs[i].AttachTree(trees[i])
		}
		full, to := engs[0], engs[1]
		edgesF, edgesT := trees[0].Edges(), trees[1].Edges()
		for sweep := 0; sweep < 2; sweep++ {
			for i := range edges {
				zF, _, err := full.MakeNewz(edgesF[i])
				if err != nil {
					t.Fatal(err)
				}
				zT, err := to.MakeNewzTo(edgesT[i], newtonGainTol)
				if err != nil {
					t.Fatal(err)
				}
				solves++
				if math.Float64bits(zF) != math.Float64bits(zT) {
					t.Fatalf("trial %d (%s) sweep %d edge %d: MakeNewzTo ends at %.17g, MakeNewz at %.17g", trial, backend, sweep, i, zT, zF)
				}
			}
		}
		mF, mT := full.Meter, to.Meter
		npat, table := uint64(full.npat), uint64(full.ncat*ns)
		k := (mF.Logs - mT.Logs) / npat
		skipped += k
		nexp := uint64(full.nmat * ns)
		want := mT
		want.Logs += k * npat
		want.Exps += k * nexp
		want.Muls += k * (nexp + npat*(table+2))
		want.Adds += k * npat * (table + 1)
		if mF != want {
			t.Errorf("trial %d (%s): meters differ by more than %d value passes:\n MakeNewz   %s\n MakeNewzTo %s", trial, backend, k, mF.String(), mT.String())
		}
	}
	t.Logf("%d solves, %d value passes skipped", solves, skipped)
	if skipped == 0 || skipped > solves {
		t.Errorf("%d value passes skipped over %d solves, want between 1 and one per solve", skipped, solves)
	}
}

// TestNewtonSafeguardOnAdversarialTables gives the safeguard something to
// do. Sum tables of real data are benign (the test above passes with the
// entry-point comparison removed); tables with sign-mixed eigenmode
// coefficients, kept positive by a dominant λ = 0 mode, make log L(t)
// multi-modal, so Newton gets thrown out of the concave region it was in.
// Every solve that took the guarded path — seen through the meter: it takes
// its logs twice — must end no lower than it started, some of them by
// handing back the entry point. The rule is a heuristic, not a proof: a
// solve that jumps between two concave basins without sampling the dip
// between them is not guarded, and on these surfaces a few end lower than
// they started. Their share is pinned so that a weaker rule shows.
func TestNewtonSafeguardOnAdversarialTables(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	pat := randomPatterns(t, rng, 5, 40)
	eng, err := NewEngine(pat, randomModel(t, rng, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	prepareBranch(eng, randomTreeFor(t, rng, pat).Edges()[0])
	npat := uint64(eng.npat)
	flat := 0 // the eigenmode with λ = 0
	for k, l := range eng.Mod.GTR.Lambda {
		if math.Abs(l) < math.Abs(eng.Mod.GTR.Lambda[flat]) {
			flat = k
		}
	}
	const solves = 20000
	var guarded, keptEntry, escaped int
	for trial := 0; trial < solves; trial++ {
		for b := 0; b < len(eng.scr.sumTab); b += ns {
			sum := 0.0
			for k := 0; k < ns; k++ {
				eng.scr.sumTab[b+k] = rng.NormFloat64()
				sum += math.Abs(eng.scr.sumTab[b+k])
			}
			eng.scr.sumTab[b+flat] = sum * (1 + 0.2*rng.Float64())
		}
		z0 := solveStarts[rng.Intn(len(solveStarts))]
		if trial%2 == 0 {
			z0 = 0.001 + 3*rng.Float64()
		}
		logs := eng.Meter.Logs
		z, ll := eng.newtonSolve(z0, newtonGainTol, true)
		took := (eng.Meter.Logs - logs) / npat
		below := ll < eng.newtonValue(z0)-1e-9*math.Abs(ll)
		switch {
		case took == 2 && below:
			t.Fatalf("trial %d: guarded solve from z0=%g ended at z=%g below its entry point", trial, z0, z)
		case took == 2:
			guarded++
			if z == z0 {
				keptEntry++
			}
		case below:
			escaped++
		}
	}
	t.Logf("%d solves: %d took the guarded path, %d of them kept the entry point; %d unguarded solves ended below it",
		solves, guarded, keptEntry, escaped)
	if guarded == 0 || keptEntry == 0 {
		t.Errorf("safeguard never exercised: %d guarded solves, %d kept the entry point", guarded, keptEntry)
	}
	if escaped*1000 > solves {
		t.Errorf("%d of %d unguarded solves ended below their entry point, want <= 0.1 %%", escaped, solves)
	}
}

// TestNewtonStepExactOnLogShape pins what the φ-step is for: on
// f(t) = a·log t − b·t (f′ = a/t − b, f″ = −a/t²) one step lands on the
// optimum a/b from above and from below, where a plain Newton step from below
// at most doubles t and from far above overshoots past zero. From more than
// 8x below the optimum the step is the cap, 8·t; at the root it is the plain
// step: it does not move.
func TestNewtonStepExactOnLogShape(t *testing.T) {
	rng := rand.New(rand.NewSource(614))
	for trial := 0; trial < 1000; trial++ {
		a := 0.5 + 400*rng.Float64()
		b := a / (1e-4 + 2*rng.Float64()) // optimum a/b in [1e-4, 2]
		opt := a / b
		for _, t0 := range []float64{opt / 7.9, opt / 2.5, opt * 0.999, opt * 1.001, opt * 3, opt * 1e3} {
			d1, d2 := a/t0-b, -a/(t0*t0)
			if got := newtonStep(t0, d1, d2); math.Abs(got-opt) > 1e-9*opt {
				t.Fatalf("a=%g b=%g: one step from %g lands on %.12g, optimum %.12g", a, b, t0, got, opt)
			}
			if plain := t0 - d1/d2; t0 < opt/2.5 && plain > 2*t0*(1+1e-12) {
				t.Fatalf("a=%g b=%g: plain Newton from %g below the optimum reached %g, more than double", a, b, t0, plain)
			}
		}
		if plain := 3*opt - (a/(3*opt)-b)/(-a/(9*opt*opt)); plain > 0 {
			t.Fatalf("a=%g b=%g: plain Newton from 3x the optimum stayed positive (%g): the test lost its contrast", a, b, plain)
		}
		far := opt / 100
		if got := newtonStep(far, a/far-b, -a/(far*far)); math.Abs(got-8*far) > 0 {
			t.Fatalf("a=%g b=%g: step from %g = %g, want the cap %g", a, b, far, got, 8*far)
		}
		if got := newtonStep(opt, 0, -a/(opt*opt)); math.Abs(got-opt) > 1e-12*opt {
			t.Fatalf("a=%g b=%g: step at the root moved to %g", a, b, got)
		}
	}
	// Where φ is not decreasing the step is Newton's own.
	if got, want := newtonStep(0.1, 5, -2), 0.1+5.0/2; math.Abs(got-want) > 0 {
		t.Errorf("newtonStep(0.1, 5, -2) = %g, want the plain step %g", got, want)
	}
}

// parentNewtonSolve is the solver as it was before the φ-step and the gain
// stop rule — plain Newton steps, newtonTol on the branch length only, the
// same clamps and the same entry-point safeguard — kept as the oracle for
// where a solve should end, nothing else.
func parentNewtonSolve(e *Engine, z0 float64) (t, ll float64, iters uint64) {
	t = z0
	concave, guarded, converged := false, false, false
	for ; iters < newtonMaxIter && !converged; iters++ {
		d1, d2 := e.newtonDerivs(t)
		var next float64
		if d2 < 0 {
			concave = true
			next = t - d1/d2
		} else {
			guarded = guarded || concave
			next = t / 2
			if d1 > 0 {
				next = t * 2
			}
		}
		next = math.Min(math.Max(next, phylotree.MinBranchLength), phylotree.MaxBranchLength)
		converged = math.Abs(next-t) < newtonTol*(1+t)
		t = next
	}
	ll = e.newtonValue(t)
	if (guarded || !converged) && t != z0 {
		if ll0 := e.newtonValue(z0); ll0 > ll {
			t, ll = z0, ll0
		}
	}
	return t, ll, iters
}

// TestNewtonSolveMatchesParentRule is the accuracy gate of the φ-step and the
// gain stop rule: over the branches of random trees — data evolved on a tree
// and unrelated sequences, Gamma and CAT, every backend — from starts on both
// clamps, near zero, ordinary and saturated, the log-likelihood a solve
// returns is never more than 1e-7 below what the parent's rule returns on the
// same table, and it spends fewer iterations in total.
func TestNewtonSolveMatchesParentRule(t *testing.T) {
	var solves, iters, parentIters uint64
	worst := 0.0
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		nt := 5 + rng.Intn(10)
		var pat *alignment.Patterns
		if trial%2 == 0 {
			a, _, err := seqsim.Generate(seqsim.Params{Taxa: nt, Sites: 300, MeanBranch: 0.1, Alpha: 0.8}, seqsim.DefaultModel(), rng)
			if err != nil {
				t.Fatal(err)
			}
			pat = alignment.Compress(a)
		} else {
			pat = randomPatterns(t, rng, nt, 120)
		}
		m := randomModel(t, rng, 1+rng.Intn(4))
		if trial%5 == 4 {
			m = catModelFor(t, rng, pat)
		}
		tr := randomTreeFor(t, rng, pat)
		eng, err := NewEngine(pat, m, Config{Backend: Backends()[trial%len(Backends())]})
		if err != nil {
			t.Fatal(err)
		}
		for _, edge := range tr.Edges() {
			prepareBranch(eng, edge)
			for _, z0 := range solveStarts {
				before := eng.Meter.NewtonIters
				_, got := eng.newtonSolve(z0, newtonGainTol, true)
				iters += eng.Meter.NewtonIters - before
				_, want, n := parentNewtonSolve(eng, z0)
				parentIters += n
				solves++
				if want-got > worst {
					worst = want - got
				}
				if got < want-1e-7 {
					t.Errorf("trial %d from z0=%g: logL %.10f, parent's rule %.10f (%.3g lower)", trial, z0, got, want, want-got)
				}
			}
		}
	}
	t.Logf("%d solves: %d iterations, the parent's rule %d; worst shortfall %.3g logL", solves, iters, parentIters, worst)
	if iters >= parentIters {
		t.Errorf("%d iterations, the parent's rule spends %d: the step bought nothing", iters, parentIters)
	}
}

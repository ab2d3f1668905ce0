package likelihood

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

func TestBackendRegistry(t *testing.T) {
	names := Backends()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["scalar"] || !found["batched"] {
		t.Fatalf("registry missing shipped backends: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Backends() not sorted: %v", names)
		}
	}

	if got := (Config{}).BackendName(); got != DefaultBackend {
		t.Errorf("empty Config resolves to %q, want %q", got, DefaultBackend)
	}
	if got := (Config{Backend: "batched"}).BackendName(); got != "batched" {
		t.Errorf("BackendName() = %q, want batched", got)
	}

	rng := rand.New(rand.NewSource(601))
	pat := randomPatterns(t, rng, 6, 40)
	m := randomModel(t, rng, 4)
	if _, err := NewEngine(pat, m, Config{Backend: "no-such-backend"}); err == nil {
		t.Error("NewEngine accepted an unknown backend")
	}
	eng, err := NewEngine(pat, m, Config{Backend: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != "batched" {
		t.Errorf("Engine.Backend() = %q, want batched", eng.Backend())
	}
}

// TestBackendsMatchScalarGamma drives every registered backend through
// newview, evaluate, per-site logs and Newton branch optimization on a
// random Gamma-rate workload, asserting exact (bit-for-bit) agreement with
// the scalar reference: the batched tiles are restructured loops over the
// same summation orders, not approximations. Lazy-SPR insertion scores on a
// pruned tree agree to 1e-9.
func TestBackendsMatchScalarGamma(t *testing.T) {
	for _, name := range Backends() {
		if name == "scalar" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(602))
			pat := randomPatterns(t, rng, 12, 300)
			m := randomModel(t, rng, 4)
			tr := randomTreeFor(t, rng, pat)

			ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
			if err != nil {
				t.Fatal(err)
			}
			alt, err := NewEngine(pat, m, Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}

			// Partial vectors and scale counters bit-identical.
			p := tr.Tips[0].Back
			ref.NewView(p)
			alt.NewView(p)
			idx := p.Index
			for i := range ref.lv[idx] {
				if ref.lv[idx][i] != alt.lv[idx][i] {
					t.Fatalf("partial vector diverges at %d: %g vs %g", i, ref.lv[idx][i], alt.lv[idx][i])
				}
			}
			for i := range ref.scale[idx] {
				if ref.scale[idx][i] != alt.scale[idx][i] {
					t.Fatalf("scale counter diverges at pattern %d: %d vs %d", i, ref.scale[idx][i], alt.scale[idx][i])
				}
			}

			// Log-likelihood bit-identical.
			llR, err := ref.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			if llR != llA {
				t.Fatalf("logL diverges: scalar %.17g vs %s %.17g", llR, name, llA)
			}

			// Per-site logs bit-identical.
			psR, err := ref.PerSiteLogL(tr.Tips[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			psA, err := alt.PerSiteLogL(tr.Tips[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range psR {
				if psR[i] != psA[i] {
					t.Fatalf("per-site log diverges at pattern %d: %g vs %g", i, psR[i], psA[i])
				}
			}

			// The deterministic meter counters agree so far: backends
			// restructure the loops but perform the same arithmetic. (The
			// MakeNewz stage below calls the reference engine twice per
			// edge, so the meters are only comparable at this point.)
			if ref.Meter.Flops() != alt.Meter.Flops() ||
				ref.Meter.ScaleChecks != alt.Meter.ScaleChecks ||
				ref.Meter.ScaleEvents != alt.Meter.ScaleEvents {
				t.Errorf("meters diverge:\n scalar  %s\n %s %s", ref.Meter.String(), name, alt.Meter.String())
			}

			// Newton branch optimization: identical iteration trajectory, so
			// identical optimum, for tip and inner branches.
			for _, edgeIdx := range []int{0, 4, 9} {
				eR := tr.Edges()[edgeIdx]
				zR, mlR, err := ref.MakeNewz(eR)
				if err != nil {
					t.Fatal(err)
				}
				zA, mlA, err := alt.MakeNewz(eR)
				// The reference call already moved the branch to its optimum,
				// so the second solve starts there; rerun the reference from
				// the same state for a fair bit comparison.
				if err != nil {
					t.Fatal(err)
				}
				zR2, mlR2, err := ref.MakeNewz(eR)
				if err != nil {
					t.Fatal(err)
				}
				if zA != zR2 && math.Abs(zA-zR)/(1+zR) > 1e-12 {
					t.Fatalf("edge %d: MakeNewz z diverges: scalar %.17g/%.17g vs %s %.17g", edgeIdx, zR, zR2, name, zA)
				}
				if mlA != mlR2 && math.Abs(mlA-mlR)/math.Abs(mlR) > 1e-12 {
					t.Fatalf("edge %d: MakeNewz logL diverges: scalar %.17g/%.17g vs %s %.17g", edgeIdx, mlR, mlR2, name, mlA)
				}
			}

			// Lazy-SPR insertion scores on a pruned tree, which neither
			// engine is attached to: both drop their slots first.
			ps, err := tr.Prune(tr.Tips[0].Back)
			if err != nil {
				t.Fatal(err)
			}
			ref.InvalidateAll()
			alt.InvalidateAll()
			cands := append(radiusEdges(ps.Q, 3), radiusEdges(ps.R, 3)...)
			if len(cands) < 4 {
				t.Fatalf("%d insertion candidates", len(cands))
			}
			for i, cand := range cands {
				zR, llR, err := ref.InsertionScore(cand, ps.P, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				zA, llA, err := alt.InsertionScore(cand, ps.P, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(llR-llA) > 1e-9*(1+math.Abs(llR)) || math.Abs(zR-zA) > 1e-9*(1+zR) {
					t.Errorf("candidate %d: %s insertion score (%.12g, %.12g) != scalar (%.12g, %.12g)", i, name, zA, llA, zR, llR)
				}
			}
			if err := tr.Undo(ps); err != nil {
				t.Fatal(err)
			}

		})
	}
}

// TestBackendsMatchScalarCAT checks the CAT layout (per-pattern rate
// categories) through every backend; the batched backend delegates CAT to
// the scalar loops, so agreement must be exact.
func TestBackendsMatchScalarCAT(t *testing.T) {
	for _, name := range Backends() {
		if name == "scalar" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(603))
			pat := randomPatterns(t, rng, 9, 220)
			gtr := randomModel(t, rng, 1).GTR
			tr := randomTreeFor(t, rng, pat)
			np := pat.NumPatterns()
			assign := make([]int, np)
			for i := range assign {
				assign[i] = i % 4
			}
			cat, err := model.NewCATModel(gtr, []float64{0.2, 0.7, 1.3, 2.8}, assign, pat.Weights)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEngine(pat, cat, Config{Backend: "scalar"})
			if err != nil {
				t.Fatal(err)
			}
			alt, err := NewEngine(pat, cat, Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}
			llR, err := ref.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			if llR != llA {
				t.Fatalf("CAT logL diverges: scalar %.17g vs %s %.17g", llR, name, llA)
			}
			zR, mlR, err := ref.MakeNewz(tr.Edges()[2])
			if err != nil {
				t.Fatal(err)
			}
			zA, mlA, err := alt.MakeNewz(tr.Edges()[2])
			if err != nil {
				t.Fatal(err)
			}
			// Second call starts from the reference optimum on both engines,
			// so trajectories coincide.
			if math.Abs(zA-zR) > 1e-12*(1+zR) || math.Abs(mlA-mlR) > 1e-9*math.Abs(mlR) {
				t.Fatalf("CAT MakeNewz diverges: (%.17g, %.17g) vs (%.17g, %.17g)", zR, mlR, zA, mlA)
			}
		})
	}
}

// FuzzBackendEquivalence drives random alignments, models and rate
// layouts (Gamma and CAT, varying taxa/sites/categories) through every
// registered backend and asserts agreement with the scalar reference:
// bit-identical partial vectors, ≤1e-9 relative log-likelihoods, and
// bit-identical Newton passes (d1, d2, value at a random branch length on a
// random edge) and MakeNewz results from the same start. One input in four
// has a pattern count within two of a block multiple, and GOMAXPROCS is at
// least 2 throughout, so those engines run their passes through the
// executor with helpers adopting blocks.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(80), uint8(4), false)
	f.Add(int64(2), uint8(4), uint16(33), uint8(1), false)
	f.Add(int64(3), uint8(9), uint16(130), uint8(3), true)
	f.Add(int64(4), uint8(12), uint16(64), uint8(2), true)
	f.Add(int64(5), uint8(8), uint16(3), uint8(4), false)   // one pattern short of a block
	f.Add(int64(6), uint8(10), uint16(35), uint8(3), true)  // two blocks and one pattern, CAT
	f.Add(int64(7), uint8(7), uint16(19), uint8(4), false)  // a block and two patterns
	f.Add(int64(8), uint8(12), uint16(27), uint8(2), false) // exactly two blocks
	// Wide and cherry-heavy: a cherry's few classes beside hundreds of rows,
	// the combines and evaluates that read class tables.
	f.Add(int64(9), uint8(12), uint16(397), uint8(4), false)   // 16 taxa, 413 sites
	f.Add(int64(10), uint8(1), uint16(398), uint8(4), false)   // 5 taxa, every combine beside a cherry
	f.Add(int64(11), uint8(12), uint16(1023), uint8(4), false) // 16 taxa, two blocks and two patterns
	withProcs(f, max(2, runtime.GOMAXPROCS(0)))
	f.Fuzz(func(t *testing.T, seed int64, taxa uint8, sites uint16, cats uint8, useCAT bool) {
		nt := 4 + int(taxa)%13 // 4..16 taxa
		nsites := 16 + int(sites)%400
		nc := 1 + int(cats)%4 // 1..4 categories
		rng := rand.New(rand.NewSource(seed))
		var pat *alignment.Patterns
		if sites%4 == 3 {
			// (1 or 2) blocks − 2 … + 2 patterns; columns over fewer than
			// seven taxa repeat too often to give that many.
			nt = max(nt, 7)
			pat = patternsOfCount(t, rng, nt, (1+int(sites>>4)%2)*rangeBlock+int(sites>>2)%4+int(sites>>3)%2-2)
			nsites = pat.NumPatterns()
		} else {
			pat = randomPatterns(t, rng, nt, nsites)
		}
		var m *model.Model
		if useCAT {
			gtr := randomModel(t, rng, 1).GTR
			np := pat.NumPatterns()
			assign := make([]int, np)
			for i := range assign {
				assign[i] = rng.Intn(nc)
			}
			rates := make([]float64, nc)
			for i := range rates {
				rates[i] = 0.1 + 3*rng.Float64()
			}
			var err error
			m, err = model.NewCATModel(gtr, rates, assign, pat.Weights)
			if err != nil {
				t.Skip(err)
			}
		} else {
			m = randomModel(t, rng, nc)
		}
		tr := randomTreeFor(t, rng, pat)

		ref, err := NewEngine(pat, m, Config{Backend: "scalar"})
		if err != nil {
			t.Skip(err)
		}
		llR, err := ref.Evaluate(tr.Tips[0])
		if err != nil {
			t.Skip(err)
		}
		idx := tr.Tips[0].Back.Index
		var alts []*Engine
		for _, name := range Backends() {
			if name == "scalar" {
				continue
			}
			alt, err := NewEngine(pat, m, Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}
			llA, err := alt.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(llA-llR) > 1e-9*math.Max(1, math.Abs(llR)) {
				t.Fatalf("%s logL %.15g != scalar %.15g (taxa=%d sites=%d cats=%d cat=%v)",
					name, llA, llR, nt, nsites, nc, useCAT)
			}
			for i := range ref.lv[idx] {
				if ref.lv[idx][i] != alt.lv[idx][i] {
					t.Fatalf("%s partial vector diverges at %d (taxa=%d sites=%d cats=%d cat=%v)",
						name, i, nt, nsites, nc, useCAT)
				}
			}
			alts = append(alts, alt)
		}

		// The Newton stage moves a branch, so it runs after every vector
		// comparison, each engine starting from the same length.
		edge := tr.Edges()[rng.Intn(len(tr.Edges()))]
		z0, zProbe := edge.Z, phylotree.MaxBranchLength*math.Pow(rng.Float64(), 4)
		type newtonResult struct{ d1, d2, value, z, logL float64 }
		newtonStage := func(e *Engine) newtonResult {
			edge.SetZ(z0)
			prepareBranch(e, edge)
			var r newtonResult
			r.d1, r.d2 = e.newtonDerivs(zProbe)
			r.value = e.newtonValue(zProbe)
			var err error
			if r.z, r.logL, err = e.MakeNewz(edge); err != nil {
				t.Fatal(err)
			}
			return r
		}
		want := newtonStage(ref)
		for _, alt := range alts {
			if got := newtonStage(alt); got != want {
				t.Fatalf("%s Newton stage from z=%g, probe %g: %+v, scalar %+v (taxa=%d sites=%d cats=%d cat=%v)",
					alt.Backend(), z0, zProbe, got, want, nt, nsites, nc, useCAT)
			}
			if alt.Meter != ref.Meter {
				t.Fatalf("%s meter diverges:\n scalar %s\n %s %s", alt.Backend(), ref.Meter.String(), alt.Backend(), alt.Meter.String())
			}
		}
	})
}

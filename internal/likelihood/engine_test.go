package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// --- test helpers ---

func patternsFrom(t *testing.T, rows []string, names []string) *alignment.Patterns {
	t.Helper()
	var seqs []*bio.Sequence
	for i, r := range rows {
		s, err := bio.NewSequence(names[i], r)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	a, err := alignment.New(seqs)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a)
}

func randomPatterns(t *testing.T, rng *rand.Rand, nTaxa, nSites int) *alignment.Patterns {
	t.Helper()
	bases := "ACGTACGTACGTN-RY" // mostly plain bases with some ambiguity
	rows := make([]string, nTaxa)
	names := make([]string, nTaxa)
	for i := 0; i < nTaxa; i++ {
		var b strings.Builder
		for j := 0; j < nSites; j++ {
			b.WriteByte(bases[rng.Intn(len(bases))])
		}
		rows[i] = b.String()
		names[i] = fmt.Sprintf("t%02d", i)
	}
	return patternsFrom(t, rows, names)
}

func randomModel(t *testing.T, rng *rand.Rand, ncat int) *model.Model {
	t.Helper()
	var rates [6]float64
	for i := range rates {
		rates[i] = 0.3 + 3*rng.Float64()
	}
	var freqs [4]float64
	sum := 0.0
	for i := range freqs {
		freqs[i] = 0.15 + rng.Float64()
		sum += freqs[i]
	}
	for i := range freqs {
		freqs[i] /= sum
	}
	g, err := model.NewGTR(rates, freqs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewModel(g, 0.7, ncat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomTreeFor(t *testing.T, rng *rand.Rand, pat *alignment.Patterns) *phylotree.Tree {
	t.Helper()
	tr, err := phylotree.RandomTopology(pat.Names, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Edges() {
		e.SetZ(0.02 + 0.3*rng.Float64())
	}
	return tr
}

// bruteForceLogL computes the tree log-likelihood by explicit enumeration of
// all internal-node state assignments — an independent O(4^(n-2)) reference
// implementation with no pruning, no scaling and no shared code with the
// engine's kernels. Only usable for tiny trees.
func bruteForceLogL(t *testing.T, tr *phylotree.Tree, pat *alignment.Patterns, m *model.Model) float64 {
	t.Helper()
	edges := tr.Edges()
	// Collect internal indices.
	internals := map[int]bool{}
	for _, e := range edges {
		if !e.IsTip() {
			internals[e.Index] = true
		}
		if !e.Back.IsTip() {
			internals[e.Back.Index] = true
		}
	}
	var inner []int
	for idx := range internals {
		inner = append(inner, idx)
	}
	nInner := len(inner)
	slot := map[int]int{}
	for i, idx := range inner {
		slot[idx] = i
	}
	rootIdx := inner[0]

	ncat := m.NumCats()
	// Precompute P matrices per edge per cat.
	type edgeP struct {
		a, b int // node indices
		pm   [][4][4]float64
	}
	eps := make([]edgeP, len(edges))
	for k, e := range edges {
		ep := edgeP{a: e.Index, b: e.Back.Index, pm: make([][4][4]float64, ncat)}
		for c := 0; c < ncat; c++ {
			m.GTR.TransitionMatrix(e.Z, m.Cats[c], &ep.pm[c])
		}
		eps[k] = ep
	}
	tipCode := func(idx, pattern int) byte { return pat.Data[idx][pattern] & 0x0f }

	// Direct every edge away from the root (the pi factor sits at the root
	// only, so the P matrix must be indexed [parent state][child state]).
	// BFS from the root through internal nodes; tips are always children.
	adj := map[int][]int{} // node index -> edge positions
	for k, ep := range eps {
		adj[ep.a] = append(adj[ep.a], k)
		adj[ep.b] = append(adj[ep.b], k)
	}
	visited := map[int]bool{rootIdx: true}
	queue := []int{rootIdx}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, k := range adj[u] {
			ep := &eps[k]
			other := ep.b
			if ep.b == u {
				other = ep.a
			}
			if visited[other] {
				continue // the already-oriented edge back toward the root
			}
			if ep.a != u {
				ep.a, ep.b = ep.b, ep.a // a is always the parent
			}
			visited[other] = true
			if internals[other] {
				queue = append(queue, other)
			}
		}
	}

	logL := 0.0
	assign := make([]int, nInner)
	total := 1
	for i := 0; i < nInner; i++ {
		total *= 4
	}
	for p := 0; p < pat.NumPatterns(); p++ {
		site := 0.0
		for c := 0; c < ncat; c++ {
			catSum := 0.0
			for mask := 0; mask < total; mask++ {
				v := mask
				for i := 0; i < nInner; i++ {
					assign[i] = v & 3
					v >>= 2
				}
				term := m.GTR.Freqs[assign[slot[rootIdx]]]
				for _, ep := range eps {
					var sa, sb int
					aTip := !internals[ep.a]
					bTip := !internals[ep.b]
					if !aTip {
						sa = assign[slot[ep.a]]
					}
					if !bTip {
						sb = assign[slot[ep.b]]
					}
					switch {
					case aTip && bTip:
						t.Fatal("tip-tip edge")
					case aTip:
						// Sum transition into the allowed tip states.
						code := tipCode(ep.a, p)
						s := 0.0
						for j := 0; j < 4; j++ {
							if code&(1<<j) != 0 {
								s += ep.pm[c][sb][j]
							}
						}
						term *= s
					case bTip:
						code := tipCode(ep.b, p)
						s := 0.0
						for j := 0; j < 4; j++ {
							if code&(1<<j) != 0 {
								s += ep.pm[c][sa][j]
							}
						}
						term *= s
					default:
						term *= ep.pm[c][sa][sb]
					}
				}
				catSum += term
			}
			site += catSum
		}
		site /= float64(ncat)
		logL += float64(pat.Weights[p]) * math.Log(site)
	}
	return logL
}

// --- tests ---

func TestEvaluateAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		nTaxa := 4 + trial%2 // 4 or 5 taxa
		pat := randomPatterns(t, rng, nTaxa, 30)
		m := randomModel(t, rng, 4)
		tr := randomTreeFor(t, rng, pat)

		want := bruteForceLogL(t, tr, pat, m)

		eng, err := NewEngine(pat, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Evaluate(tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Fatalf("trial %d: engine logL = %.10f, brute force = %.10f", trial, got, want)
		}
	}
}

func TestEvaluateBranchInvariance(t *testing.T) {
	// The log likelihood must be identical at every branch of the tree
	// (time-reversibility), as the paper notes in Section 5.2.
	rng := rand.New(rand.NewSource(21))
	pat := randomPatterns(t, rng, 8, 60)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Edges() {
		ll, err := eng.Evaluate(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ll-ref) > 1e-7*math.Abs(ref) {
			t.Fatalf("edge %d: logL %.12f differs from reference %.12f", i, ll, ref)
		}
	}
}

func TestConfigVariantsAgree(t *testing.T) {
	// Every backend computes the same bits: the configuration chooses how
	// the kernels run, never what they compute.
	rng := rand.New(rand.NewSource(31))
	pat := randomPatterns(t, rng, 10, 80)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)

	var ref float64
	for i, backend := range Backends() {
		eng, err := NewEngine(pat, m, Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		ll, err := eng.Evaluate(tr.Tips[2])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = ll
		} else if ll != ref {
			t.Errorf("backend %s: logL = %.17g, want %.17g", backend, ll, ref)
		}
	}
}

// caterpillarTree builds a maximally deep (ladder) topology, which drives
// partial-vector magnitudes down by roughly a factor of 4 per level — the
// regime where RAxML's 2^-256 scaling threshold actually fires.
func caterpillarTree(t *testing.T, pat *alignment.Patterns, z float64) *phylotree.Tree {
	t.Helper()
	tr, err := phylotree.NewTree(pat.Names)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InitTriplet(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < pat.NumTaxa; i++ {
		if err := tr.InsertTip(i, tr.Tips[i-1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range tr.Edges() {
		e.SetZ(z)
	}
	return tr
}

func TestScalingOnDeepTree(t *testing.T) {
	// A 150-taxon caterpillar with long branches underflows unscaled partial
	// vectors; the engine must trigger scale events and still produce a
	// finite likelihood that matches across branches.
	rng := rand.New(rand.NewSource(41))
	pat := randomPatterns(t, rng, 150, 50)
	tr := caterpillarTree(t, pat, 2.5)
	m := randomModel(t, rng, 4)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := eng.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("logL = %v", ll)
	}
	if eng.Meter.ScaleEvents == 0 {
		t.Error("no scale events on deep long-branch tree")
	}
	if eng.UnderflowSites() != 0 {
		t.Errorf("underflow sites = %d despite scaling", eng.UnderflowSites())
	}
	// Branch invariance still holds with scaling active.
	ll2, err := eng.Evaluate(tr.Tips[149])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-ll2) > 1e-6*math.Abs(ll) {
		t.Errorf("scaled logL differs across branches: %.10f vs %.10f", ll, ll2)
	}
}

func TestNeedsScalingDirect(t *testing.T) {
	pat := patternsFrom(t,
		[]string{"ACGT", "ACGA", "ACGG"},
		[]string{"a", "b", "c"})
	m := randomModel(t, rand.New(rand.NewSource(3)), 2)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	small := make([]float64, 8)
	for i := range small {
		small[i] = MinLikelihood / 2
	}
	if !eng.needsScaling(small) {
		t.Error("all-small vector not flagged")
	}
	small[3] = 0.5
	if eng.needsScaling(small) {
		t.Error("vector with large entry flagged")
	}
	zero := make([]float64, 8)
	if !eng.needsScaling(zero) {
		t.Error("zero vector not flagged")
	}
}

func TestMakeNewzImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pat := randomPatterns(t, rng, 8, 100)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}

	for i, e := range tr.Edges() {
		before, err := eng.Evaluate(e)
		if err != nil {
			t.Fatal(err)
		}
		zOpt, llOpt, err := eng.MakeNewz(e)
		if err != nil {
			t.Fatal(err)
		}
		if llOpt < before-1e-7*math.Abs(before) {
			t.Fatalf("edge %d: MakeNewz worsened logL: %.8f -> %.8f", i, before, llOpt)
		}
		// The branch actually carries the optimized value.
		if e.Z != zOpt && e.Back.Z != zOpt {
			t.Fatalf("edge %d: optimized z=%g not stored (branch has %g)", i, zOpt, e.Z)
		}
		// Verify against a fresh Evaluate.
		fresh, err := eng.Evaluate(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fresh-llOpt) > 1e-6*math.Abs(fresh) {
			t.Fatalf("edge %d: MakeNewz logL %.8f disagrees with Evaluate %.8f", i, llOpt, fresh)
		}
		// Local optimality: nudging the branch either way must not improve.
		z := e.Z
		for _, nz := range []float64{z * 0.9, z * 1.1} {
			e.SetZ(nz)
			ll, err := eng.Evaluate(e)
			if err != nil {
				t.Fatal(err)
			}
			if ll > llOpt+1e-6*math.Abs(llOpt)+1e-9 {
				t.Fatalf("edge %d: perturbed z=%g has better logL %.8f > %.8f", i, nz, ll, llOpt)
			}
		}
		e.SetZ(z)
	}
}

func TestMakeNewzTipBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pat := randomPatterns(t, rng, 5, 80)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimize the branch at a tip (kernel must handle the tip side).
	z, ll, err := eng.MakeNewz(tr.Tips[3])
	if err != nil {
		t.Fatal(err)
	}
	if z < phylotree.MinBranchLength || z > phylotree.MaxBranchLength {
		t.Errorf("z = %g out of bounds", z)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Errorf("ll = %v", ll)
	}
}

func TestMeterAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pat := randomPatterns(t, rng, 6, 40)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(tr.Tips[0]); err != nil {
		t.Fatal(err)
	}
	mt := &eng.Meter
	if mt.NewviewCalls == 0 || mt.EvaluateCalls != 1 {
		t.Errorf("call counts: %s", mt)
	}
	if mt.TipTipCalls+mt.TipInnerCalls+mt.InnerInnerCalls != mt.NewviewCalls {
		t.Errorf("specialization counts don't sum: %s", mt)
	}
	if mt.Flops() == 0 || mt.Exps == 0 || mt.Logs == 0 {
		t.Errorf("op counts zero: %s", mt)
	}
	if mt.ScaleChecks == 0 {
		t.Error("no scale checks metered")
	}
	if mt.BigLoopIters != uint64(pat.NumPatterns())*mt.NewviewCalls {
		t.Errorf("big loop iters %d != patterns*newviews %d",
			mt.BigLoopIters, uint64(pat.NumPatterns())*mt.NewviewCalls)
	}
	if mt.BytesStreamed == 0 {
		t.Error("no bytes streamed metered")
	}
	// Meter.Add and Reset.
	var sum Meter
	sum.Add(mt)
	sum.Add(mt)
	if sum.NewviewCalls != 2*mt.NewviewCalls || sum.Flops() != 2*mt.Flops() {
		t.Error("Meter.Add wrong")
	}
	if !strings.Contains(mt.String(), "newview=") {
		t.Error("Meter.String malformed")
	}
}

func TestEngineErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pat := randomPatterns(t, rng, 4, 10)
	m := randomModel(t, rng, 2)
	if _, err := NewEngine(nil, m, Config{}); err == nil {
		t.Error("nil patterns accepted")
	}
	if _, err := NewEngine(pat, nil, Config{}); err == nil {
		t.Error("nil model accepted")
	}
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	detached := &phylotree.Node{Index: 0}
	if _, err := eng.Evaluate(detached); err == nil {
		t.Error("detached branch accepted by Evaluate")
	}
	if _, _, err := eng.MakeNewz(detached); err == nil {
		t.Error("detached branch accepted by MakeNewz")
	}
}

func TestEvaluateDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pat := randomPatterns(t, rng, 12, 60)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := eng.Evaluate(tr.Tips[0])
	b, _ := eng.Evaluate(tr.Tips[0])
	if a != b {
		t.Errorf("repeated Evaluate differs: %.15f vs %.15f", a, b)
	}
}

// TestTipProjectionOnlyOccurringCodes pins that filling the tip-projection
// tables for the ambiguity codes of the alignment only is invisible to the
// kernels: with all 16 codes present and with 4, every newview vector, scale
// count, evaluate and makenewz result is bit-equal to an engine that fills
// the full 16-code table on every call, as every engine did before.
func TestTipProjectionOnlyOccurringCodes(t *testing.T) {
	for _, tc := range []struct {
		name, alphabet string
		zeroCode       bool // code 0 has no character; it is written into the data
		want           int
	}{
		{"all 16 codes", "ACMGRSVTWYHKDB-", true, 16},
		{"4 codes", "ACGT", false, 4},
	} {
		rng := rand.New(rand.NewSource(311))
		rows, names := make([]string, 9), make([]string, 9)
		for i := range rows {
			var b strings.Builder
			for j := 0; j < 150; j++ {
				b.WriteByte(tc.alphabet[rng.Intn(len(tc.alphabet))])
			}
			rows[i], names[i] = b.String(), fmt.Sprintf("t%02d", i)
		}
		pat := patternsFrom(t, rows, names)
		if tc.zeroCode {
			pat.Data[3][5] = 0
		}
		m := randomModel(t, rng, 4)
		tr := randomTreeFor(t, rng, pat)
		for _, backend := range Backends() {
			eng, err := NewEngine(pat, m, Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if len(eng.tipCodes) != tc.want {
				t.Fatalf("%s: engine lists %d tip codes %v, want %d", tc.name, len(eng.tipCodes), eng.tipCodes, tc.want)
			}
			full, err := NewEngine(pat, m, Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			full.tipCodes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
			for i, e := range tr.Edges() {
				got, err := eng.Evaluate(e)
				if err != nil {
					t.Fatal(err)
				}
				want, err := full.Evaluate(e)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s: Evaluate at edge %d = %.17g, full table %.17g", tc.name, backend, i, got, want)
				}
				for _, r := range [...]*phylotree.Node{e, e.Back} {
					if !r.IsTip() {
						assertVectorsEqual(t, tc.name+"/"+backend, eng, mustVector(t, eng, r), mustVector(t, full, r))
					}
				}
			}
			z0 := tr.Edges()[2].Z
			gotZ, gotLL, err := eng.MakeNewz(tr.Edges()[2])
			if err != nil {
				t.Fatal(err)
			}
			tr.Edges()[2].SetZ(z0)
			wantZ, wantLL, err := full.MakeNewz(tr.Edges()[2])
			if err != nil {
				t.Fatal(err)
			}
			tr.Edges()[2].SetZ(z0)
			if gotZ != wantZ || gotLL != wantLL {
				t.Fatalf("%s/%s: MakeNewz = (%.17g, %.17g), full table (%.17g, %.17g)", tc.name, backend, gotZ, gotLL, wantZ, wantLL)
			}
			if tc.want == 16 && eng.Meter != full.Meter {
				t.Errorf("%s/%s: meters differ with every code present:\n %s\n %s", tc.name, backend, eng.Meter.String(), full.Meter.String())
			}
			if tc.want < 16 && eng.Meter.Flops() >= full.Meter.Flops() {
				t.Errorf("%s/%s: %d flops with %d codes, %d with the full table: nothing saved", tc.name, backend, eng.Meter.Flops(), tc.want, full.Meter.Flops())
			}
		}
	}
}

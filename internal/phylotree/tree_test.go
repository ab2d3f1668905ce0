package phylotree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%02d", i)
	}
	return out
}

func buildLadder(t *testing.T, n int) *Tree {
	t.Helper()
	tr, err := NewTree(names(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InitTriplet(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < n; i++ {
		// Always insert on the branch leading to tip i-1: a caterpillar.
		if err := tr.InsertTip(i, tr.Tips[i-1]); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree([]string{"a", "b"}); err == nil {
		t.Error("2 taxa accepted")
	}
	if _, err := NewTree([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate taxa accepted")
	}
	if _, err := NewTree([]string{"a", "", "c"}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestTripletTopology(t *testing.T) {
	tr := buildLadder(t, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Edges()); got != 3 {
		t.Errorf("edges = %d, want 3", got)
	}
	if !tr.Complete() {
		t.Error("triplet not complete")
	}
}

func TestStepwiseAdditionInvariants(t *testing.T) {
	for _, n := range []int{4, 5, 8, 16, 42} {
		tr := buildLadder(t, n)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := len(tr.Edges()), 2*n-3; got != want {
			t.Errorf("n=%d: edges = %d, want %d", n, got, want)
		}
		if !tr.Complete() {
			t.Errorf("n=%d: not complete", n)
		}
		if got, want := len(tr.InternalEdges()), n-3; got != want {
			t.Errorf("n=%d: internal edges = %d, want %d", n, got, want)
		}
	}
}

func TestRandomTopologyProperties(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 4 + int(rawN)%40
		rng := rand.New(rand.NewSource(seed))
		tr, err := RandomTopology(names(n), rng)
		if err != nil {
			return false
		}
		return tr.Validate() == nil && len(tr.Edges()) == 2*n-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInsertTipErrors(t *testing.T) {
	tr := buildLadder(t, 4)
	if err := tr.InsertTip(0, tr.Tips[1]); err == nil {
		t.Error("re-inserting attached tip accepted")
	}
	if err := tr.InitTriplet(0, 1, 2); err == nil {
		t.Error("InitTriplet on built tree accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := buildLadder(t, 10)
	cl := tr.Clone()
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Newick() != cl.Newick() {
		t.Error("clone renders differently")
	}
	// Mutate original; clone must not change.
	tr.Tips[3].SetZ(0.77)
	if tr.Newick() == cl.Newick() {
		t.Error("clone shares branch state with original")
	}
}

func TestSetZSymmetry(t *testing.T) {
	tr := buildLadder(t, 5)
	e := tr.Edges()[2]
	e.SetZ(0.42)
	if e.Back.Z != 0.42 {
		t.Error("SetZ not mirrored to Back")
	}
	e.SetZ(1e-20)
	if e.Z != MinBranchLength {
		t.Errorf("SetZ below min not clamped: %g", e.Z)
	}
	e.SetZ(1e6)
	if e.Z != MaxBranchLength {
		t.Errorf("SetZ above max not clamped: %g", e.Z)
	}
}

// TestSetZNotifies: a SetZ that changes the stored bits is a length-only
// edit its tree's observers hear once, with the record it was called on; one
// that stores the same bits, or edits a clone, reaches no observer.
func TestSetZNotifies(t *testing.T) {
	tr := buildLadder(t, 6)
	type edit struct {
		nd   *Node
		topo bool
	}
	var heard []edit
	tr.OnBranchChange(func(nd *Node, topo bool) { heard = append(heard, edit{nd, topo}) })
	e := tr.Edges()[3]
	if !e.SetZ(e.Z*1.5) || len(heard) != 1 || heard[0] != (edit{e, false}) {
		t.Fatalf("changing SetZ: heard %v, want one length edit at the record", heard)
	}
	heard = nil
	if e.SetZ(e.Z) || e.Back.SetZ(e.Z) || len(heard) != 0 {
		t.Errorf("same-bits SetZ reported a change or was heard: %v", heard)
	}
	e.SetZ(1e6) // stores MaxBranchLength: heard
	if e.SetZ(MaxBranchLength*2) || len(heard) != 1 {
		t.Errorf("a SetZ clamped to the stored bound reported a change, or the first was not heard: %v", heard)
	}
	heard = nil
	cl := tr.Clone()
	for _, c := range cl.Edges() {
		if c.Tree() != cl {
			t.Fatal("a clone's record does not belong to the clone")
		}
		c.SetZ(c.Z * 1.5)
	}
	if len(heard) != 0 {
		t.Errorf("an edit of the clone reached the original's observer %d times", len(heard))
	}
}

func TestPruneRegraftRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := RandomTopology(names(12), rng)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Newick()
	bipBefore := tr.Bipartitions()

	// Prune an internal node adjacent to tip 5's neighborhood.
	p := tr.Tips[5].Back // internal ring record whose Back is tip 5
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Undo(ps); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Newick(); got != before {
		t.Errorf("undo did not restore tree:\n before %s\n after  %s", before, got)
	}
	after := tr.Bipartitions()
	if len(after) != len(bipBefore) {
		t.Error("bipartition count changed after undo")
	}
}

func TestPruneRegraftMove(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, err := RandomTopology(names(15), rng)
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Clone()

	p := tr.Tips[3].Back
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	// Regraft somewhere else: pick an edge not in the pruned subtree.
	edges := tr.Edges()
	if err := tr.Regraft(ps, edges[len(edges)-1]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := RobinsonFoulds(orig, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Log("SPR happened to restore the same topology (allowed but unusual)")
	}
	// Tip set must be preserved.
	for i, tip := range tr.Tips {
		if tip.Back == nil {
			t.Errorf("tip %d detached after SPR", i)
		}
	}
}

func TestPruneErrors(t *testing.T) {
	tr := buildLadder(t, 6)
	if _, err := tr.Prune(tr.Tips[0]); err == nil {
		t.Error("pruning at a tip record accepted")
	}
}

func TestRegraftIntoPrunedBranchRejected(t *testing.T) {
	tr := buildLadder(t, 8)
	p := tr.Tips[4].Back
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RegraftZ(ps, ps.P, 0.1, 0.1); err == nil {
		t.Error("regraft into pruned ring accepted")
	}
	if err := tr.Undo(ps); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusEdges(t *testing.T) {
	tr := buildLadder(t, 10)
	p := tr.Tips[0] // directed into the tree
	e1, _ := RadiusEdgesInto(nil, nil, p, 1)
	out, parents := RadiusEdgesInto(nil, nil, p, 3)
	if len(e1) == 0 || len(out) <= len(e1) {
		t.Errorf("radius enumeration not growing: r1=%d r3=%d", len(e1), len(out))
	}
	// All returned edges are attached records.
	for _, e := range out {
		if e.Back == nil {
			t.Error("detached edge in radius set")
		}
	}
	// The parents come from the same walk: an edge hangs off its parent's far
	// end (the origin's for -1), which comes before it, and no deeper than
	// the radius.
	if len(parents) != len(out) {
		t.Fatalf("%d edges and %d parents", len(out), len(parents))
	}
	for i, e := range out {
		far, depth := p.Back, 1
		if j := parents[i]; j >= 0 {
			if j >= i {
				t.Fatalf("edge %d has parent %d, which comes after it", i, j)
			}
			far = out[j].Back
			for k := j; k >= 0; k = parents[k] {
				depth++
			}
		}
		if ring := far.Ring(); e == far || !slices.Contains(ring[:], e) {
			t.Errorf("edge %d does not hang off its parent's far end", i)
		}
		if depth > 3 {
			t.Errorf("edge %d at depth %d, beyond radius 3", i, depth)
		}
	}
}

// TestRadiusEdgesIntoAppends: the SPR loop walks both sides of a pruned
// branch into one buffer, reused from prune to prune. The second walk's
// edges follow the first's, its parent indexes point into the whole buffer,
// and a reused buffer gives what fresh ones give.
func TestRadiusEdgesIntoAppends(t *testing.T) {
	tr := buildLadder(t, 10)
	q, r := tr.Tips[0], tr.Tips[5]
	qOut, qPar := RadiusEdgesInto(nil, nil, q, 2)
	rOut, rPar := RadiusEdgesInto(nil, nil, r, 2)
	if len(qOut) == 0 || len(rOut) == 0 {
		t.Fatalf("empty walks: %d and %d edges", len(qOut), len(rOut))
	}
	out, par := RadiusEdgesInto(nil, nil, q, 2)
	out, par = RadiusEdgesInto(out, par, r, 2)
	if !slices.Equal(out, append(slices.Clone(qOut), rOut...)) {
		t.Error("the second walk's edges do not follow the first's")
	}
	want := slices.Clone(qPar)
	for _, j := range rPar {
		if j >= 0 {
			j += len(qOut)
		}
		want = append(want, j)
	}
	if !slices.Equal(par, want) {
		t.Errorf("parents %v, want %v", par, want)
	}
	reOut, rePar := RadiusEdgesInto(out[:0], par[:0], q, 2)
	reOut, rePar = RadiusEdgesInto(reOut, rePar, r, 2)
	if !slices.Equal(reOut, out) || !slices.Equal(rePar, par) {
		t.Error("a reused buffer gives other edges than fresh ones")
	}
}

func TestRobinsonFouldsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := RandomTopology(names(10), rng)
		if err != nil {
			return false
		}
		d, err := RobinsonFoulds(tr, tr.Clone())
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRobinsonFouldsDifferent(t *testing.T) {
	a := buildLadder(t, 8)
	rng := rand.New(rand.NewSource(123))
	var b *Tree
	var err error
	for i := 0; i < 10; i++ {
		b, err = RandomTopology(names(8), rng)
		if err != nil {
			t.Fatal(err)
		}
		d, err := RobinsonFoulds(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d > 0 {
			return // found a differing topology, as expected
		}
	}
	t.Error("10 random topologies all identical to the ladder; RF suspect")
}

func TestRobinsonFouldsMismatch(t *testing.T) {
	a := buildLadder(t, 5)
	b := buildLadder(t, 6)
	if _, err := RobinsonFoulds(a, b); err == nil {
		t.Error("taxon count mismatch accepted")
	}
}

func TestSubtreeTips(t *testing.T) {
	tr := buildLadder(t, 6)
	// The record from tip 0 toward the tree sees all other tips.
	tips := SubtreeTips(tr.Tips[0], nil)
	if len(tips) != 5 {
		t.Errorf("SubtreeTips from tip0 = %v", tips)
	}
	// The reverse direction sees only tip 0.
	tips = SubtreeTips(tr.Tips[0].Back.Ring()[0], nil)
	_ = tips // direction depends on ring layout; just ensure no panic
}

func TestAlignTaxa(t *testing.T) {
	tr := buildLadder(t, 5)
	reordered := []string{"t03", "t01", "t04", "t00", "t02"}
	if err := tr.AlignTaxa(reordered); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, name := range reordered {
		if tr.Tips[i].Name != name || tr.Tips[i].Index != i {
			t.Errorf("tip %d = %q idx %d", i, tr.Tips[i].Name, tr.Tips[i].Index)
		}
	}
	if err := tr.AlignTaxa([]string{"x", "y", "z", "w", "v"}); err == nil {
		t.Error("unknown taxa accepted")
	}
	if err := tr.AlignTaxa([]string{"t00"}); err == nil {
		t.Error("short taxa list accepted")
	}
}

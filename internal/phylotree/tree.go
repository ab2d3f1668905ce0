// Package phylotree implements the unrooted binary phylogenetic tree
// topology used by the likelihood and search code, mirroring RAxML's data
// structure: every internal node is a ring of three directed Node records
// that share a likelihood-vector slot, and every directed record has a Back
// pointer to the node at the other end of its branch.
//
// Branch lengths are stored as expected substitutions per site (t), not as
// RAxML's z = exp(-t/fracchange) parameterization; the makenewz kernel in
// internal/likelihood optimizes t directly.
package phylotree

import (
	"fmt"
	"math/rand"
)

// DefaultBranchLength is the initial length assigned to newly created
// branches (RAxML uses 0.1 as its default starting branch length too).
const DefaultBranchLength = 0.1

// MinBranchLength and MaxBranchLength bound all branch lengths; the
// optimizer clamps into this range (mirrors RAxML's zmin/zmax bounds).
const (
	MinBranchLength = 1e-8
	MaxBranchLength = 10.0
)

// Node is one directed record of the topology. A tip is a single record
// (Next == nil); an internal node is a ring of three records connected via
// Next that share the same Index.
type Node struct {
	Index int     // likelihood-vector slot: tips 0..n-1, internals n..2n-3
	Name  string  // tip name; empty for internal records
	Next  *Node   // ring pointer (nil for tips)
	Back  *Node   // node at the other end of this branch (nil if detached)
	Z     float64 // branch length to Back; kept equal on both directions

	tree *Tree // whose observers hear SetZ; nil for a record built by hand
}

// Tree returns the tree whose NewTree, NewInternalRing or Clone made nd.
func (nd *Node) Tree() *Tree { return nd.tree }

// IsTip reports whether nd is a tip record.
func (nd *Node) IsTip() bool { return nd.Next == nil }

// Ring returns the three records of an internal node (nd, nd.Next,
// nd.Next.Next). It panics on tips.
func (nd *Node) Ring() [3]*Node {
	if nd.IsTip() {
		panic("phylotree: Ring on tip")
	}
	return [3]*Node{nd, nd.Next, nd.Next.Next}
}

// Connect joins a and b with a branch of length z.
func Connect(a, b *Node, z float64) {
	a.Back, b.Back = b, a
	z = clampZ(z)
	a.Z, b.Z = z, z
}

func clampZ(z float64) float64 {
	if z < MinBranchLength {
		return MinBranchLength
	}
	if z > MaxBranchLength {
		return MaxBranchLength
	}
	return z
}

// SetZ sets the branch length on both directions of nd's branch and reports
// whether the stored bits changed. A change is an edit of nd's tree: its
// OnBranchChange observers hear of it as a length-only one.
func (nd *Node) SetZ(z float64) bool {
	z = clampZ(z)
	//lint:ignore floatcmp deliberate bit-exact check: any change to the stored branch length, however small, is an edit the observers must hear of
	if z == nd.Z {
		return false
	}
	nd.Z = z
	if nd.Back != nil {
		nd.Back.Z = z
	}
	nd.tree.notifyBranch(nd, false)
	return true
}

// Tree is an unrooted binary tree over a fixed taxon set.
type Tree struct {
	Taxa []string // taxon names; tip i has Index i and Name Taxa[i]
	Tips []*Node  // tip records, indexed by taxon index

	inner     []*Node // one representative record per internal ring
	nextInner int     // next internal Index to hand out
	freeIdx   []int   // released internal indices available for reuse

	branchHooks []func(nd *Node, topo bool) // observers of topology and length edits
}

// NewTree allocates a tree skeleton (no topology yet) for the given taxa.
func NewTree(taxa []string) (*Tree, error) {
	if len(taxa) < 3 {
		return nil, fmt.Errorf("phylotree: need at least 3 taxa, got %d", len(taxa))
	}
	seen := make(map[string]bool, len(taxa))
	t := &Tree{
		Taxa:      append([]string(nil), taxa...),
		Tips:      make([]*Node, len(taxa)),
		nextInner: len(taxa),
	}
	for i, name := range taxa {
		if name == "" {
			return nil, fmt.Errorf("phylotree: empty taxon name at %d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("phylotree: duplicate taxon %q", name)
		}
		seen[name] = true
		t.Tips[i] = &Node{Index: i, Name: name, tree: t}
	}
	return t, nil
}

// OnBranchChange registers fn as an observer of the tree's edits. The
// topology edits (InitTriplet, InsertTip, RemoveTip, Prune, Regraft, Undo)
// call fn with topo set, once per affected branch: *before* a branch is
// destroyed — while the topology is still fully connected, so the observer
// can walk outward from both ends — and *after* a branch is created or
// re-joined. A SetZ that changes a length calls fn with its record and topo
// false. Likelihood engines use this to invalidate cached partial vectors
// (likelihood.Engine.AttachTree). Connect tells no one: it builds topologies
// nothing observes yet. Hooks are not copied by Clone.
func (t *Tree) OnBranchChange(fn func(nd *Node, topo bool)) {
	t.branchHooks = append(t.branchHooks, fn)
}

// notifyBranch reports an edit of the branch at nd to all registered
// observers; a record of no tree has none.
func (t *Tree) notifyBranch(nd *Node, topo bool) {
	if t == nil || nd == nil {
		return
	}
	for _, fn := range t.branchHooks {
		fn(nd, topo)
	}
}

// NumTips returns the number of taxa.
func (t *Tree) NumTips() int { return len(t.Tips) }

// NewInternalRing allocates a fresh, detached internal node ring and
// returns its representative; the tree's own edits and algorithms that
// assemble topologies bottom-up (e.g. neighbor joining) wire its three
// records with Connect. It prefers released indices, so that repeated
// insert/remove cycles (trial insertions during stepwise addition) do not
// grow the index space past 2n-2.
func (t *Tree) NewInternalRing() *Node {
	var idx int
	if n := len(t.freeIdx); n > 0 {
		idx = t.freeIdx[n-1]
		t.freeIdx = t.freeIdx[:n-1]
	} else {
		idx = t.nextInner
		t.nextInner++
	}
	a := &Node{Index: idx, tree: t}
	b := &Node{Index: idx, tree: t}
	c := &Node{Index: idx, tree: t}
	a.Next, b.Next, c.Next = b, c, a
	t.inner = append(t.inner, a)
	return a
}

// InitTriplet wires the first three tips around one internal node, the seed
// topology for stepwise addition.
func (t *Tree) InitTriplet(i, j, k int) error {
	if len(t.inner) != 0 {
		return fmt.Errorf("phylotree: InitTriplet on non-empty topology")
	}
	if i == j || j == k || i == k {
		return fmt.Errorf("phylotree: triplet indices must be distinct")
	}
	center := t.NewInternalRing()
	r := center.Ring()
	Connect(r[0], t.Tips[i], DefaultBranchLength)
	Connect(r[1], t.Tips[j], DefaultBranchLength)
	Connect(r[2], t.Tips[k], DefaultBranchLength)
	t.notifyBranch(r[0], true)
	return nil
}

// InsertTip splits the branch (at, at.Back) with a fresh internal node and
// attaches tip index ti to it. The split halves the existing branch length.
func (t *Tree) InsertTip(ti int, at *Node) error {
	tip := t.Tips[ti]
	if tip.Back != nil {
		return fmt.Errorf("phylotree: tip %d already attached", ti)
	}
	if at == nil || at.Back == nil {
		return fmt.Errorf("phylotree: insertion edge is detached")
	}
	t.notifyBranch(at, true) // the branch about to be split
	other := at.Back
	half := at.Z / 2
	n := t.NewInternalRing()
	r := n.Ring()
	Connect(r[0], tip, DefaultBranchLength)
	Connect(r[1], at, half)
	Connect(r[2], other, half)
	t.notifyBranch(r[0], true)
	t.notifyBranch(r[1], true)
	t.notifyBranch(r[2], true)
	return nil
}

// Edges returns one directed record per branch in deterministic discovery
// order starting from the first attached tip. It also works on partially
// built topologies (during stepwise addition), enumerating the connected
// component of that tip.
func (t *Tree) Edges() []*Node {
	var edges []*Node
	seen := make(map[*Node]bool)
	var visit func(nd *Node)
	visit = func(nd *Node) {
		if nd == nil || nd.Back == nil || seen[nd] {
			return
		}
		seen[nd] = true
		seen[nd.Back] = true
		edges = append(edges, nd)
		if !nd.Back.IsTip() {
			for _, r := range nd.Back.Ring() {
				if r != nd.Back {
					visit(r)
				}
			}
		}
	}
	for _, tip := range t.Tips {
		if tip.Back != nil {
			visit(tip)
			break
		}
	}
	return edges
}

// InternalEdges returns the directed records of branches whose both ends are
// internal nodes (the branches that define non-trivial bipartitions).
func (t *Tree) InternalEdges() []*Node {
	var out []*Node
	for _, e := range t.Edges() {
		if !e.IsTip() && !e.Back.IsTip() {
			out = append(out, e)
		}
	}
	return out
}

// Complete reports whether every tip is attached and the topology has the
// expected number of internal nodes (n-2).
func (t *Tree) Complete() bool {
	for _, tip := range t.Tips {
		if tip.Back == nil {
			return false
		}
	}
	return len(t.inner) == len(t.Tips)-2
}

// Validate walks the topology and checks structural invariants: Back
// symmetry, branch length agreement, ring integrity, and full connectivity.
func (t *Tree) Validate() error {
	if !t.Complete() {
		return fmt.Errorf("phylotree: incomplete topology (%d inner for %d tips)", len(t.inner), len(t.Tips))
	}
	visited := make(map[*Node]bool)
	var walk func(nd *Node) error
	walk = func(nd *Node) error {
		if visited[nd] {
			return nil
		}
		visited[nd] = true
		if nd.Back == nil {
			return fmt.Errorf("phylotree: node %d has nil Back", nd.Index)
		}
		if nd.Back.Back != nd {
			return fmt.Errorf("phylotree: asymmetric Back at node %d", nd.Index)
		}
		//lint:ignore floatcmp invariant check: both directions of a branch must hold the bit-identical length, any drift is a wiring bug
		if nd.Z != nd.Back.Z {
			return fmt.Errorf("phylotree: branch length mismatch at node %d: %g vs %g", nd.Index, nd.Z, nd.Back.Z)
		}
		if nd.Z < MinBranchLength || nd.Z > MaxBranchLength {
			return fmt.Errorf("phylotree: branch length %g out of bounds at node %d", nd.Z, nd.Index)
		}
		if !nd.IsTip() {
			if nd.Next == nil || nd.Next.Next == nil || nd.Next.Next.Next != nd {
				return fmt.Errorf("phylotree: broken ring at node %d", nd.Index)
			}
			for _, r := range nd.Ring() {
				if r.Index != nd.Index {
					return fmt.Errorf("phylotree: ring index mismatch at node %d", nd.Index)
				}
				if err := walk(r); err != nil {
					return err
				}
			}
		}
		return walk(nd.Back)
	}
	if err := walk(t.Tips[0]); err != nil {
		return err
	}
	// All tips reachable?
	for i, tip := range t.Tips {
		if !visited[tip] {
			return fmt.Errorf("phylotree: tip %d (%s) unreachable", i, tip.Name)
		}
	}
	return nil
}

// RandomTopology builds a random topology by stepwise addition with uniform
// random insertion edges — the randomized starting-tree shape RAxML uses
// (there the order/placement is parsimony-guided; see internal/parsimony).
func RandomTopology(taxa []string, rng *rand.Rand) (*Tree, error) {
	t, err := NewTree(taxa)
	if err != nil {
		return nil, err
	}
	order := rng.Perm(len(taxa))
	if err := t.InitTriplet(order[0], order[1], order[2]); err != nil {
		return nil, err
	}
	for _, ti := range order[3:] {
		edges := t.Edges()
		at := edges[rng.Intn(len(edges))]
		if err := t.InsertTip(ti, at); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AlignTaxa renumbers the tree's tips to match the given taxon order (e.g.
// the row order of an alignment), so Index values and bipartitions are
// comparable across trees. The taxon sets must be identical.
func (t *Tree) AlignTaxa(taxa []string) error {
	if len(taxa) != len(t.Taxa) {
		return fmt.Errorf("phylotree: taxon count mismatch %d vs %d", len(taxa), len(t.Taxa))
	}
	byName := make(map[string]*Node, len(t.Tips))
	for _, tip := range t.Tips {
		byName[tip.Name] = tip
	}
	newTips := make([]*Node, len(taxa))
	for i, name := range taxa {
		tip, ok := byName[name]
		if !ok {
			return fmt.Errorf("phylotree: taxon %q not in tree", name)
		}
		tip.Index = i
		newTips[i] = tip
	}
	t.Tips = newTips
	t.Taxa = append(t.Taxa[:0], taxa...)
	return nil
}

// Clone deep-copies the topology and branch lengths. The clone's records
// belong to the clone, and branch-change hooks registered with
// OnBranchChange are not copied: they observe this tree's node identities,
// which the clone does not share, so no edit of the clone reaches them.
func (t *Tree) Clone() *Tree {
	nt := &Tree{
		Taxa:      append([]string(nil), t.Taxa...),
		Tips:      make([]*Node, len(t.Tips)),
		nextInner: t.nextInner,
		freeIdx:   append([]int(nil), t.freeIdx...),
	}
	clone := make(map[*Node]*Node)
	var get func(nd *Node) *Node
	get = func(nd *Node) *Node {
		if nd == nil {
			return nil
		}
		if c, ok := clone[nd]; ok {
			return c
		}
		c := &Node{Index: nd.Index, Name: nd.Name, Z: nd.Z, tree: nt}
		clone[nd] = c
		c.Next = get(nd.Next)
		c.Back = get(nd.Back)
		return c
	}
	for i, tip := range t.Tips {
		nt.Tips[i] = get(tip)
	}
	for _, in := range t.inner {
		nt.inner = append(nt.inner, get(in))
	}
	return nt
}

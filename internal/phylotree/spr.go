package phylotree

import (
	"fmt"
)

// PrunedSubtree records the state needed to undo a Prune.
type PrunedSubtree struct {
	P      *Node   // the detached internal ring record (subtree hangs off P.Back)
	Q, R   *Node   // the records that were joined when P was removed
	QZ, RZ float64 // original branch lengths P.Next—Q and P.Next.Next—R
}

// Prune performs the subtree-pruning half of an SPR move, mirroring RAxML's
// removeNodeBIG: p must be an internal ring record; the subtree consisting of
// p's ring plus everything behind p.Back is detached, and p's two other
// neighbors q and r are joined with a branch of combined length.
func (t *Tree) Prune(p *Node) (*PrunedSubtree, error) {
	if p.IsTip() {
		return nil, fmt.Errorf("phylotree: cannot prune at a tip record")
	}
	q := p.Next.Back
	r := p.Next.Next.Back
	if q == nil || r == nil {
		return nil, fmt.Errorf("phylotree: prune target already detached")
	}
	ps := &PrunedSubtree{P: p, Q: q, R: r, QZ: p.Next.Z, RZ: p.Next.Next.Z}
	// Notify the two branches about to be destroyed while the topology is
	// still connected (observers walk outward from both ends), then the
	// re-joined branch once it exists.
	t.notifyBranch(p.Next, true)
	t.notifyBranch(p.Next.Next, true)
	Connect(q, r, ps.QZ+ps.RZ)
	p.Next.Back = nil
	p.Next.Next.Back = nil
	t.removeInner(p.Index)
	t.notifyBranch(q, true)
	return ps, nil
}

// Regraft inserts the pruned ring held by ps.P into the branch (at,
// at.Back), splitting its length in half (mirrors RAxML's insertBIG).
func (t *Tree) Regraft(ps *PrunedSubtree, at *Node) error {
	return t.RegraftZ(ps, at, at.Z/2, at.Z/2)
}

// RegraftZ inserts with explicit branch lengths: zAt on the at side, zOther
// on the at.Back side.
func (t *Tree) RegraftZ(ps *PrunedSubtree, at *Node, zAt, zOther float64) error {
	p := ps.P
	if p.Next.Back != nil || p.Next.Next.Back != nil {
		return fmt.Errorf("phylotree: subtree already attached")
	}
	if at == nil || at.Back == nil {
		return fmt.Errorf("phylotree: regraft edge is detached")
	}
	if at == p || at.Back == p {
		return fmt.Errorf("phylotree: cannot regraft into the pruned branch")
	}
	t.notifyBranch(at, true) // the branch about to be split
	other := at.Back
	Connect(p.Next, at, zAt)
	Connect(p.Next.Next, other, zOther)
	t.inner = append(t.inner, p)
	t.notifyBranch(p.Next, true)
	t.notifyBranch(p.Next.Next, true)
	return nil
}

// Undo reverses a Prune, restoring the original topology and branch lengths.
func (t *Tree) Undo(ps *PrunedSubtree) error {
	// After Prune, Q and R are joined directly; splice P back between them.
	if ps.Q.Back != ps.R {
		return fmt.Errorf("phylotree: cannot undo, joined branch was modified")
	}
	t.notifyBranch(ps.Q, true) // the joined branch about to be destroyed
	p := ps.P
	Connect(p.Next, ps.Q, ps.QZ)
	Connect(p.Next.Next, ps.R, ps.RZ)
	t.inner = append(t.inner, p)
	t.notifyBranch(p.Next, true)
	t.notifyBranch(p.Next.Next, true)
	return nil
}

// RemoveTip undoes an InsertTip: it detaches tip ti together with its host
// internal node, re-joins the branch that the insertion had split (summing
// the half lengths back), and releases the internal index for reuse.
func (t *Tree) RemoveTip(ti int) error {
	tip := t.Tips[ti]
	if tip.Back == nil {
		return fmt.Errorf("phylotree: tip %d is not attached", ti)
	}
	host := tip.Back
	if host.IsTip() {
		return fmt.Errorf("phylotree: tip %d attached to a tip", ti)
	}
	a, b := host.Next, host.Next.Next
	if a.Back == nil || b.Back == nil {
		return fmt.Errorf("phylotree: host ring of tip %d is partially detached", ti)
	}
	t.notifyBranch(tip, true)
	t.notifyBranch(a, true)
	t.notifyBranch(b, true)
	join := a.Back
	Connect(a.Back, b.Back, a.Z+b.Z)
	tip.Back = nil
	host.Back = nil
	a.Back = nil
	b.Back = nil
	t.removeInner(host.Index)
	t.freeIdx = append(t.freeIdx, host.Index)
	t.notifyBranch(join, true)
	return nil
}

func (t *Tree) removeInner(index int) {
	for i, in := range t.inner {
		if in.Index == index {
			t.inner[i] = t.inner[len(t.inner)-1]
			t.inner = t.inner[:len(t.inner)-1]
			return
		}
	}
}

// SubtreeTips collects the tip indices reachable behind nd (through
// nd.Back's far side), i.e. the tip set of the subtree nd points into.
func SubtreeTips(nd *Node, out []int) []int {
	tgt := nd.Back
	if tgt.IsTip() {
		return append(out, tgt.Index)
	}
	for _, r := range tgt.Ring() {
		if r != tgt {
			out = SubtreeTips(r, out)
		}
	}
	return out
}

// RadiusEdgesInto appends to out the directed insertion edges reachable from
// origin within the given node radius, excluding the origin branch itself:
// the move-set enumeration for RAxML's rearrangement-radius-bounded SPR. It
// appends into caller-supplied buffers, so the SPR hot loop can reuse its
// slices. parents gets, per edge appended to
// out, the index in out of the edge whose far end it hangs off (-1 at the
// origin's), so a caller can stop the walk below an edge.
func RadiusEdgesInto(out []*Node, parents []int, origin *Node, radius int) ([]*Node, []int) {
	var walk func(nd *Node, parent, depth int)
	walk = func(nd *Node, parent, depth int) {
		if depth > radius || nd == nil {
			return
		}
		self := len(out)
		out = append(out, nd)
		parents = append(parents, parent)
		tgt := nd.Back
		if tgt.IsTip() {
			return
		}
		for _, r := range tgt.Ring() {
			if r != tgt {
				walk(r, self, depth+1)
			}
		}
	}
	tgt := origin.Back
	if tgt != nil && !tgt.IsTip() {
		for _, r := range tgt.Ring() {
			if r != tgt {
				walk(r, -1, 1)
			}
		}
	}
	return out, parents
}

// Bipartition is a canonical tip bitset for one internal edge.
type Bipartition string

// bipartitionOf computes the canonical bitset of the tips behind e,
// complemented if necessary so tip 0 is never included.
func bipartitionOf(e *Node, numTips int) Bipartition {
	words := (numTips + 63) / 64
	bits := make([]uint64, words)
	for _, ti := range SubtreeTips(e, nil) {
		bits[ti/64] |= 1 << (ti % 64)
	}
	if bits[0]&1 != 0 { // contains tip 0: take the complement
		for w := range bits {
			bits[w] = ^bits[w]
		}
		// Mask tail bits beyond numTips.
		if numTips%64 != 0 {
			bits[words-1] &= (1 << (numTips % 64)) - 1
		}
	}
	buf := make([]byte, 8*words)
	for w, v := range bits {
		for b := 0; b < 8; b++ {
			buf[8*w+b] = byte(v >> (8 * b))
		}
	}
	return Bipartition(buf)
}

// Bipartitions returns the set of non-trivial bipartitions of the tree.
func (t *Tree) Bipartitions() map[Bipartition]bool {
	out := make(map[Bipartition]bool)
	for _, e := range t.InternalEdges() {
		out[bipartitionOf(e, len(t.Tips))] = true
	}
	return out
}

// RobinsonFoulds returns the RF distance between two trees over the same
// taxon set (taxon order must match; compare by name first if unsure).
func RobinsonFoulds(a, b *Tree) (int, error) {
	if len(a.Tips) != len(b.Tips) {
		return 0, fmt.Errorf("phylotree: taxon count mismatch %d vs %d", len(a.Tips), len(b.Tips))
	}
	for i := range a.Taxa {
		if a.Taxa[i] != b.Taxa[i] {
			return 0, fmt.Errorf("phylotree: taxon order mismatch at %d: %q vs %q", i, a.Taxa[i], b.Taxa[i])
		}
	}
	ba := a.Bipartitions()
	bb := b.Bipartitions()
	d := 0
	for k := range ba {
		if !bb[k] {
			d++
		}
	}
	for k := range bb {
		if !ba[k] {
			d++
		}
	}
	return d, nil
}

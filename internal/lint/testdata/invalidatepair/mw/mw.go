// Golden input for the invalidatepair analyzer outside the search layer:
// this file pretends to live in raxmlcell/internal/mw, where a job runner
// holds an engine for the length of a job. Every engine caches, so the rule
// binds wherever an engine can be held, not only where the search edits
// trees. The stubs mirror phylotree.Node and likelihood.Engine by method
// name, like the search-layer case.
package mw

type node struct{ z float64 }

func (n *node) SetZ(z float64) { n.z = z }

type engine struct{ dirty bool }

func (e *engine) Invalidate(n *node)         { e.dirty = true }
func (e *engine) InvalidateAll()             { e.dirty = true }
func (e *engine) Evaluate(n *node) float64   { return n.z }
func newEngine() *engine                     { return &engine{} }
func parseCheckpointTree(z float64) []*node  { return []*node{{z: z}} }
func clampBranch(z float64) float64          { return z }
func score(e *engine, edges []*node) float64 { return e.Evaluate(edges[0]) }

// A resumed job rescales the checkpointed branch lengths after the engine
// has already scored the tree: the second score would read stale vectors.
func badResumeRescale(e *engine, edges []*node, f float64) float64 {
	before := score(e, edges)
	for _, n := range edges {
		n.SetZ(n.z * f) // want `not followed by Engine.Invalidate`
	}
	return score(e, edges) - before
}

func goodResumeRescale(e *engine, edges []*node, f float64) float64 {
	before := score(e, edges)
	for _, n := range edges {
		n.SetZ(n.z * f)
	}
	e.InvalidateAll()
	return score(e, edges) - before
}

func goodPerBranch(e *engine, edges []*node) {
	for _, n := range edges {
		n.SetZ(clampBranch(n.z))
		e.Invalidate(n)
	}
}

func suppressedBeforeEngine(z float64) float64 {
	edges := parseCheckpointTree(z)
	//lint:ignore invalidatepair the job's engine is built below, after the tree is final
	edges[0].SetZ(clampBranch(z))
	return score(newEngine(), edges)
}

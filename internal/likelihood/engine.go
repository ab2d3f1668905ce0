package likelihood

import (
	"fmt"
	"math"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

const ns = model.NumStates

// Numerical scaling constants (RAxML's twotothe256/minlikelihood scheme):
// when every entry of a pattern's partial vector drops below MinLikelihood,
// the vector is multiplied by 2^256 and a per-pattern scaling counter is
// incremented; evaluate() folds the counters back in log space.
var (
	TwoTo256      = math.Ldexp(1, 256)
	MinLikelihood = math.Ldexp(1, -256)
	logMinLik     = math.Log(MinLikelihood)
)

// Config selects the compute backend and the kernel observer. Both
// backends compute the same bits on Gamma and CAT models alike
// (the cross-backend tests assert it); they differ in loop structure and
// speed. Loop-level parallelism is not configured: the per-pattern passes of
// an engine with more than one block of patterns are spread over the CPUs
// that are idle at the time (executor.go), with the same bits at any
// GOMAXPROCS.
type Config struct {
	// Backend selects the compute backend the kernels' per-pattern inner
	// loops run on: "batched" (the default: pattern-major cache-blocked
	// tiles with fused transition×partial loops — the Go analogue of the
	// paper's SPU vectorization; CAT models run the scalar loops through
	// it) or "scalar" (the reference loops, kept as the oracle the tests
	// and the benchmark compare against). See Backends; the batched
	// backend must agree with scalar to ≤1e-9 logL. Empty means
	// DefaultBackend.
	Backend string

	// Observer, when set together with Now, receives the elapsed wall time
	// of every kernel entry point (newview combine, makenewz Newton solve,
	// evaluate). Now is the monotonic time source the engine reads around
	// each call — injected rather than time.Now so deterministic harnesses
	// stay in control of the clock. Both must be non-nil for timing to
	// engage; otherwise the kernels run exactly as before, with zero
	// overhead.
	Observer KernelObserver
	Now      func() time.Duration

	// noRepeats keeps one row per pattern in every slot: the engine the
	// repeat properties compare against. Only in-package tests set it.
	noRepeats bool
}

// BackendName resolves the configured backend name, mapping the empty
// default to DefaultBackend.
func (cfg Config) BackendName() string {
	if cfg.Backend == "" {
		return DefaultBackend
	}
	return cfg.Backend
}

// Engine computes likelihoods of trees over one compressed alignment and one
// substitution model. It owns the partial likelihood vectors for every node
// index and a Meter of kernel operations.
//
// The engine never recomputes a valid vector: every internal node's lv/scale
// slot remembers which of its three ring orientations it holds (RAxML's
// "x-vector"), NewView recomputes only the slots a traversal descriptor
// finds missing or mis-oriented, and every edit drops exactly the slots it
// dirtied (Invalidate, AttachTree, SetModel). Whoever changes a tree an
// engine has seen must tell the engine; full recomputation is what a fresh
// engine, or InvalidateAll before the call, gives.
//
// The vectors the slots cannot hold — those of records facing away from the
// slots' orientation, which lazy SPR reads — are memoized per directed ring
// record (Vector), valid until the next edit. All per-call kernel scratch
// lives in scr. An engine is used from one goroutine at a time; the range
// executor's helpers touch it only for the blocks of its running pass.
type Engine struct {
	Pat   *alignment.Patterns
	Mod   *model.Model
	Cfg   Config
	Meter Meter

	npat, ncat int // ncat is the per-site storage width (1 under CAT)
	nblk       int // blocks of rangeBlock patterns a pass runs over
	nmat       int // distinct rate categories = transition matrices
	patCat     []int
	invCats    float64     // per-site averaging weight (1 under CAT)
	lv         [][]float64 // [nodeIndex][pat*ncat*ns + cat*ns + state]
	scale      [][]int32   // [nodeIndex][pat] cumulative scaling counts
	tipVec     [16][ns]float64
	tipCodes   []int // the ambiguity codes that occur in Pat.Data, ascending

	// orient[idx] is the ring record whose directed view the lv/scale
	// slot of internal node idx currently holds, or nil when the slot is
	// invalid. Record identity doubles as the validity flag: a record
	// pointer from a different tree (or a rewired ring) never compares
	// equal, so stale entries read as invalid.
	orient []*phylotree.Node

	// rep[idx] holds the repeat classes of up to three records of inner
	// node idx (repeats.go); the slot holds one row per class of the record
	// it is oriented to. nil under CAT, where the per-pattern matrix index
	// would have to join the class key, and beyond maxRepeatPatterns: one
	// row per pattern.
	rep [][3]repSlot

	// ident[i] = i for every pattern: the rows a tile reads from a vector
	// of one row per pattern (gatherTile).
	ident []int32

	underflowSites uint64

	// backend runs the kernels' per-pattern inner loops (Config.Backend).
	backend Backend

	// kobs/know are Config.Observer/Config.Now, cached here so the kernel
	// entry points test one pointer; both nil unless both were configured.
	kobs KernelObserver
	know func() time.Duration

	// memo[idx] holds Vector's vectors of up to three records of inner node
	// idx, like rep; an entry is valid while its epoch is the engine's
	// epoch, which every edit advances (newEpoch). Their buffers come from
	// arena, the first arenaNext of which the current epoch has taken.
	// virtual is InsertionScore's virtual insertion node.
	memo      [][3]memoEntry
	epoch     uint64
	arena     []vec
	arenaNext int
	virtual   vec

	scr scratch
}

// NewEngine allocates an engine for trees over pat's taxa with the given
// model and kernel configuration.
func NewEngine(pat *alignment.Patterns, mod *model.Model, cfg Config) (*Engine, error) {
	if pat == nil || mod == nil {
		return nil, fmt.Errorf("likelihood: nil patterns or model")
	}
	if pat.NumTaxa < 3 {
		return nil, fmt.Errorf("likelihood: need >= 3 taxa, got %d", pat.NumTaxa)
	}
	e := &Engine{
		Pat:   pat,
		Mod:   mod,
		Cfg:   cfg,
		npat:  pat.NumPatterns(),
		nmat:  mod.NumCats(),
		epoch: 1, // a memo entry of epoch 0 was never filled
	}
	e.nblk = max(1, (e.npat+rangeBlock-1)/rangeBlock)
	if e.nblk >= minPublishBlocks {
		executor.noteProcs()
	}
	if mod.IsCAT() {
		if len(mod.PatCat) != e.npat {
			return nil, fmt.Errorf("likelihood: CAT assignment covers %d patterns, alignment has %d",
				len(mod.PatCat), e.npat)
		}
		// CAT stores one category per site; the matrix index comes from the
		// per-pattern assignment and sites are not averaged.
		e.ncat = 1
		e.patCat = mod.PatCat
		e.invCats = 1
	} else {
		e.ncat = mod.NumCats()
		e.invCats = 1 / float64(e.ncat)
	}
	maxIdx := 2*pat.NumTaxa - 2
	e.orient = make([]*phylotree.Node, maxIdx)
	e.memo = make([][3]memoEntry, maxIdx)
	e.lv = make([][]float64, maxIdx)
	e.scale = make([][]int32, maxIdx)
	for i := pat.NumTaxa; i < maxIdx; i++ {
		e.lv[i] = make([]float64, e.npat*e.ncat*ns)
		e.scale[i] = make([]int32, e.npat)
	}
	if !mod.IsCAT() && !cfg.noRepeats && e.npat <= maxRepeatPatterns {
		e.allocRepeats(pat.NumTaxa, maxIdx)
	}
	e.ident = make([]int32, e.npat)
	for i := range e.ident {
		e.ident[i] = int32(i)
	}
	var occurs [16]bool
	for _, row := range pat.Data {
		for _, b := range row {
			occurs[b&0x0f] = true
		}
	}
	for code := 0; code < 16; code++ {
		for j := 0; j < ns; j++ {
			if code&(1<<j) != 0 {
				e.tipVec[code][j] = 1
			}
		}
		if occurs[code] {
			e.tipCodes = append(e.tipCodes, code)
		}
	}
	bk, err := newBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	e.backend = bk
	if cfg.Observer != nil && cfg.Now != nil {
		e.kobs = cfg.Observer
		e.know = cfg.Now
	}
	e.allocScratch()
	return e, nil
}

// Backend reports the name of the compute backend the engine runs on.
func (e *Engine) Backend() string { return e.backend.Name() }

// matIdx maps a pattern and storage-category slot to the transition-matrix
// index: the identity for Gamma, the per-pattern assignment for CAT.
func (e *Engine) matIdx(pat, c int) int {
	if e.patCat != nil {
		return e.patCat[pat]
	}
	return c
}

// SetModel swaps the substitution model (e.g. during Gamma shape or GTR
// rate optimization). The rate-heterogeneity layout (Gamma vs CAT, category
// count) must match the engine's buffers; switching layouts requires a new
// engine.
func (e *Engine) SetModel(mod *model.Model) error {
	if mod == nil {
		return fmt.Errorf("likelihood: nil model")
	}
	if mod.NumCats() != e.nmat {
		return fmt.Errorf("likelihood: category count %d != engine's %d", mod.NumCats(), e.nmat)
	}
	if mod.IsCAT() != (e.patCat != nil) {
		return fmt.Errorf("likelihood: cannot switch between Gamma and CAT layouts in place")
	}
	if mod.IsCAT() {
		e.patCat = mod.PatCat
	}
	e.Mod = mod
	// Every partial vector depends on the transition matrices, so a model
	// swap dirties the whole cache; the repeat classes, which depend on the
	// topology only, stay.
	e.dropVectors()
	return nil
}

// SetWeights swaps the per-pattern weights (bootstrap replicates share
// pattern data and only differ in weights). The weight vector length must
// match the pattern count. Cached partial vectors stay valid: weights enter
// only the evaluate/makenewz reductions, never the vectors themselves.
func (e *Engine) SetWeights(weights []int) error {
	p, err := e.Pat.WithWeights(weights)
	if err != nil {
		return fmt.Errorf("likelihood: %w", err)
	}
	e.Pat = p
	return nil
}

// UnderflowSites reports how many site-likelihood evaluations had to be
// clamped at the smallest representable magnitude (should stay 0 when
// scaling works).
func (e *Engine) UnderflowSites() uint64 { return e.underflowSites }

// Invalidate marks the minimal dirty set after a change to the branch
// (p, p.Back): every cached view whose subtree contains that branch — i.e.
// every view not oriented toward it — is dropped. Views oriented toward the
// branch exclude it by construction and stay valid, which is what makes
// branch smoothing O(changed path) instead of O(taxa). The walk is pure
// pointer chasing (no kernel work).
//
// Callers that change a branch length directly via SetZ (rather than
// through MakeNewz, which invalidates itself) must call this; topology
// operations on a Tree wired up with AttachTree invalidate automatically.
// It also drops the repeat classes of those views' records, so it covers a
// topology edit around p as well; only MakeNewz, which knows it moved a
// length, keeps them (invalidate with topo false). Either way the memo's
// epoch ends: Vector recomputes whatever it is asked for next.
func (e *Engine) Invalidate(p *phylotree.Node) { e.invalidate(p, true) }

func (e *Engine) invalidate(p *phylotree.Node, topo bool) {
	q := p.Back
	if q == nil {
		// Detached record: no branch to orient against, drop everything.
		e.InvalidateAll()
		return
	}
	e.newEpoch()
	e.keepFacing(p, topo)
	e.keepFacing(q, topo)
}

// keepFacing is the engine's one staleness rule. It walks the component
// behind record a, away from the changed branch, and keeps at each ring only
// the orientation facing that branch (a itself here, the corresponding Back
// records deeper down): its subtree excludes the branch by construction,
// every other orientation contains it. The node's slot is cleared unless it
// holds that orientation, and after a topology edit (topo) the classes of
// the ring's two other records are dropped.
func (e *Engine) keepFacing(a *phylotree.Node, topo bool) {
	if a.IsTip() {
		return
	}
	if e.orient[a.Index] != a {
		e.orient[a.Index] = nil
	}
	if topo {
		e.dropClasses(a)
	}
	if b := a.Next.Back; b != nil {
		e.keepFacing(b, topo)
	}
	if b := a.Next.Next.Back; b != nil {
		e.keepFacing(b, topo)
	}
}

// InvalidateAll drops every cached partial vector and repeat class; the next
// evaluation recomputes the full tree. Cross-tree reuse and callers that
// edit an unattached tree call this.
func (e *Engine) InvalidateAll() {
	e.dropVectors()
	for i := range e.rep {
		for k := range e.rep[i] {
			e.rep[i][k].rec = nil
		}
	}
}

// dropVectors drops every cached partial vector, slots and memo, and keeps
// the classes.
func (e *Engine) dropVectors() {
	e.newEpoch()
	for i := range e.orient {
		e.orient[i] = nil
	}
}

// AttachTree wires the engine's caches to the tree's branch-change hooks,
// so Prune/Regraft/Undo/InsertTip/RemoveTip invalidate the affected views
// and repeat classes automatically, and clears the caches (the tree may have
// been mutated before attachment). Direct SetZ calls bypass the hooks — follow them with Invalidate.
func (e *Engine) AttachTree(tr *phylotree.Tree) {
	tr.OnBranchChange(e.Invalidate)
	e.InvalidateAll()
}

// needsScaling implements the 8-condition check
// if (ABS(x3->a) < ml && ABS(x3->c) < ml && ABS(x3->g) < ml && ABS(x3->t) < ml)
// generalized over rate categories: float ABS and compare with early exit,
// the paper's original form. It counts nothing, so the concurrent blocks of
// a pass may call it (they count their checks in their parts).
func (e *Engine) needsScaling(v []float64) bool {
	for _, x := range v {
		if !(math.Abs(x) < MinLikelihood) {
			return false
		}
	}
	return true
}

// Evaluate computes the log-likelihood of the tree across the branch
// (p, p.Back), recomputing the partial vectors it needs. This is the
// paper's evaluate(): a weighted sum over the partial likelihood vector
// entries with the scaling counters folded back in log space.
func (e *Engine) Evaluate(p *phylotree.Node) (float64, error) {
	return e.evaluate(p, nil)
}

// PerSiteLogL computes the per-pattern log likelihoods (unweighted) across
// the branch (p, p.Back), filling dst (allocated if nil or short). The CAT
// rate-fitting machinery uses these to pick each site's best rate category.
func (e *Engine) PerSiteLogL(p *phylotree.Node, dst []float64) ([]float64, error) {
	if cap(dst) < e.npat {
		dst = make([]float64, e.npat)
	}
	dst = dst[:e.npat]
	if _, err := e.evaluate(p, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

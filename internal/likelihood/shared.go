package likelihood

import (
	"fmt"
	"sync"
	"sync/atomic"

	"raxmlcell/internal/phylotree"
)

// SharedCache is an epoch-tagged, read-mostly store of directed ancestral
// (partial likelihood) vectors shared by every worker context of one
// engine. It is the composition point of the engine's orientation cache and
// the worker pool: concurrent SPR/NNI candidate scoring used to rebuild
// one private Views per worker and recompute the path vectors the engine
// already held — ~1.7x redundant newview work at 4 workers. With the shared
// store, every directed vector of the frozen tree is computed exactly once
// per epoch no matter how many workers ask for it, the analogue of the
// paper staging partial-likelihood vectors once on the PPE and serving all
// SPEs from them (and of BEAGLE's shared partials buffer with explicit
// invalidation).
//
// Protocol:
//
//   - The cache keeps one entry per directed internal ring record, tagged
//     with the epoch in which its vector was computed. A vector is valid
//     iff its tag equals the cache's current epoch.
//   - Tree edits bump the epoch — implicitly invalidating everything — and
//     then re-tag into the new epoch exactly the entries the edit provably
//     did not touch: Engine.keepFacing, the same walk that clears the
//     engine's own slots, keeps at each ring the one orientation facing the
//     changed branch (its subtree excludes the branch by construction).
//     Engine.Invalidate and Engine.InvalidateAll reach the store whenever
//     it is installed (Engine.UseSharedCache), so AttachTree hooks, MakeNewz
//     self-invalidation and explicit post-SetZ invalidations all keep it
//     coherent with no extra call sites.
//   - Readers are lock-free on the hit path: one atomic epoch-tag load,
//     then the vector slices (safe because a vector is never overwritten
//     while its tag is current, and the tag store is the release point of
//     its final write).
//   - On a miss the reader takes the entry's mutex — per-node
//     single-flight — re-checks the tag, and only then computes and
//     publishes, so concurrent workers missing on the same node block
//     briefly instead of duplicating kernel work. Child vectors resolve
//     through the cache recursively; the lock order follows the directed
//     dependency DAG (strictly away from the requesting edge), so it
//     cannot deadlock.
//
// Concurrency contract: any number of goroutines may call vector()
// concurrently (each through its own Ctx), but invalidation — like the
// tree edits that trigger it — must not run concurrently with readers.
// Pool.Run's fan-out barrier provides exactly that phasing in the search.
type SharedCache struct {
	eng   *Engine
	epoch atomic.Uint64
	// entries maps directed internal ring records to their cache slots.
	// sync.Map: reads vastly outnumber the one-time slot creations, and
	// slots are never deleted — invalidation is the epoch tag, not removal.
	entries sync.Map // *phylotree.Node -> *sharedEntry

	// Counters, exported for tests and obs. hits and computes are
	// deterministic for a fixed edit/score sequence (single-flight makes
	// the computed set a pure function of the valid set and the requests);
	// waits — how many hits had to block behind the computing worker — is
	// scheduling-dependent and therefore kept out of Meter.
	hits     atomic.Uint64
	computes atomic.Uint64
	waits    atomic.Uint64
}

// sharedEntry is one directed vector slot. epoch is the validity tag
// (vector valid iff tag == owner's current epoch; 0 = never computed,
// which is why the cache's epoch counter starts at 1). mu is the
// single-flight latch: the holder is the one worker computing the slot.
type sharedEntry struct {
	epoch atomic.Uint64
	mu    sync.Mutex
	lv    []float64
	sc    []int32
}

// NewSharedCache allocates an empty shared ancestral-vector store over the
// engine's patterns and model. Install it with UseSharedCache so tree-edit
// invalidations reach it.
func (e *Engine) NewSharedCache() *SharedCache {
	s := &SharedCache{eng: e}
	s.epoch.Store(1)
	return s
}

// UseSharedCache installs (or, with nil, removes) the shared
// ancestral-vector store: while installed, Engine.Invalidate and
// Engine.InvalidateAll forward every invalidation to it, keeping its epoch
// tags coherent with the tree. The cache must belong to this engine.
// Mirrors UsePool; the search installs both for Workers > 1.
func (e *Engine) UseSharedCache(s *SharedCache) {
	e.shared = s
}

// Epoch returns the current epoch (starts at 1, bumped by every
// invalidation).
func (s *SharedCache) Epoch() uint64 { return s.epoch.Load() }

// Hits returns how many vector requests were served from a current-epoch
// slot (including requests that waited out another worker's compute).
func (s *SharedCache) Hits() uint64 { return s.hits.Load() }

// Computes returns how many vectors were computed and published.
func (s *SharedCache) Computes() uint64 { return s.computes.Load() }

// Waits returns how many hits blocked on the single-flight latch while
// another worker computed the slot. Scheduling-dependent; diagnostics only.
func (s *SharedCache) Waits() uint64 { return s.waits.Load() }

// InvalidateAll drops every cached vector by bumping the epoch without
// re-tagging anything. Model swaps and detached-record invalidations land
// here.
func (s *SharedCache) InvalidateAll() { s.epoch.Add(1) }

// retag carries record a's entry from epoch old into the epoch that
// replaced it. Engine.keepFacing calls it for exactly the records whose
// subtree excludes the changed branch, so the store and the engine's own
// slots share one walk and one validity rule.
func (s *SharedCache) retag(a *phylotree.Node, old uint64) {
	if v, ok := s.entries.Load(a); ok {
		en := v.(*sharedEntry)
		if en.epoch.Load() == old {
			en.epoch.Store(old + 1)
		}
	}
}

// entry returns r's cache slot, creating it on first use. The Load fast
// path keeps the steady state allocation-free.
func (s *SharedCache) entry(r *phylotree.Node) *sharedEntry {
	if v, ok := s.entries.Load(r); ok {
		return v.(*sharedEntry)
	}
	v, _ := s.entries.LoadOrStore(r, &sharedEntry{})
	return v.(*sharedEntry)
}

// vector returns the directed partial likelihood vector and scale counts
// behind record r at the current epoch, computing and publishing it (and,
// recursively, any stale children) under per-node single-flight on a miss.
// Kernel work and meter attribution go to the calling worker's context c.
// Tip records return (nil, nil): callers use the tip codes directly,
// exactly like Views.Vector.
func (s *SharedCache) vector(c *Ctx, r *phylotree.Node) ([]float64, []int32, error) {
	if r.IsTip() {
		return nil, nil, nil
	}
	cur := s.epoch.Load()
	en := s.entry(r)
	if en.epoch.Load() == cur {
		// Lock-free hit: the tag store below is the release point of the
		// vector's final write, so a current tag implies a complete vector.
		s.hits.Add(1)
		c.meter.SharedHits++
		return en.lv, en.sc, nil
	}
	en.mu.Lock()
	if en.epoch.Load() == cur {
		// Another worker computed the slot while we waited on the latch.
		en.mu.Unlock()
		s.hits.Add(1)
		s.waits.Add(1)
		c.meter.SharedHits++
		return en.lv, en.sc, nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		en.mu.Unlock()
		return nil, nil, fmt.Errorf("likelihood: shared view of detached record")
	}
	// Children resolve through the cache first — the recursion follows the
	// directed dependency DAG away from r, so nested latches cannot cycle.
	qLv, qSc, err := s.vector(c, q)
	if err != nil {
		en.mu.Unlock()
		return nil, nil, err
	}
	wLv, wSc, err := s.vector(c, w)
	if err != nil {
		en.mu.Unlock()
		return nil, nil, err
	}
	e := s.eng
	if en.lv == nil {
		en.lv = make([]float64, e.npat*e.ncat*ns)
		en.sc = make([]int32, e.npat)
	}
	c.combine(q, r.Next.Z, qLv, qSc, w, r.Next.Next.Z, wLv, wSc, en.lv, en.sc)
	s.computes.Add(1)
	// Publish: the tag store is the release fence for the vector writes.
	en.epoch.Store(cur)
	en.mu.Unlock()
	return en.lv, en.sc, nil
}

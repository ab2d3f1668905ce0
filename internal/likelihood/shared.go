package likelihood

import (
	"fmt"
	"sync"
	"sync/atomic"

	"raxmlcell/internal/phylotree"
)

// SharedCache is an epoch-tagged, read-mostly store of directed ancestral
// (partial likelihood) vectors shared by every worker context of one
// engine: the pooled counterpart of a private Views table. The engine's node
// slots are the primary store — Views.Vector returns a slot whenever it holds
// the requested orientation (Meter.CacheHits) — so what lands here is what
// one slot per node cannot hold: during lazy-SPR scoring, after the search
// has oriented every slot toward the prune point, the vectors facing away
// from it, one per candidate edge. Each is computed exactly once per prune
// no matter how many workers ask for it, the analogue of the paper staging
// partial-likelihood vectors once on the PPE and serving all SPEs from them.
//
// Protocol:
//
//   - The cache keeps one entry per directed internal ring record, tagged
//     with the epoch in which its vector was computed. A vector is valid
//     iff its tag equals the cache's current epoch.
//   - Every tree edit bumps the epoch (Engine.Invalidate and
//     Engine.InvalidateAll reach the store whenever it is installed), which
//     invalidates everything: a vector that contains the prune point is
//     dirtied by the Undo or Regraft that ends the prune, and the vectors
//     that survive an edit are the ones facing it, which live in the slots.
//     Entries and their buffers are reused under the next epoch's tag.
//   - Readers are lock-free on the hit path: one atomic epoch-tag load,
//     then the vector slices (safe because a vector is never overwritten
//     while its tag is current, and the tag store is the release point of
//     its final write). Slot reads need no tag at all: the slots are
//     read-only for the length of a Pool.Run.
//   - On a miss the reader takes the entry's mutex — per-node
//     single-flight — re-checks the tag, and only then computes and
//     publishes, so concurrent workers missing on the same node block
//     briefly instead of duplicating kernel work. Child vectors resolve
//     through the cache recursively; the lock order follows the directed
//     dependency DAG (strictly away from the requesting edge), so it
//     cannot deadlock.
//
// Concurrency contract: any number of goroutines may read concurrently (each
// through its own shared-backed Views), but invalidation and NewView —
// like the tree edits that trigger them — must not run concurrently with
// readers. Pool.Run's fan-out barrier provides exactly that phasing in the
// search.
type SharedCache struct {
	epoch atomic.Uint64
	// entries maps directed internal ring records to their cache slots.
	// sync.Map: reads vastly outnumber the one-time slot creations, and
	// slots are never deleted — invalidation is the epoch tag, not removal.
	entries sync.Map // *phylotree.Node -> *sharedEntry

	// Counters, exported for tests and obs: deterministic for a fixed
	// edit/score sequence (single-flight makes the computed set a pure
	// function of the valid set and the requests).
	hits     atomic.Uint64
	computes atomic.Uint64
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
	s := &SharedCache{}
	s.epoch.Store(1)
	return s
}

// UseSharedCache installs (or, with nil, removes) the shared
// ancestral-vector store: while installed, Engine.Invalidate and
// Engine.InvalidateAll bump its epoch. The cache must belong to this engine;
// the search installs it for Workers > 1.
func (e *Engine) UseSharedCache(s *SharedCache) {
	e.shared = s
}

// Epoch returns the current epoch (starts at 1, bumped by every
// invalidation).
func (s *SharedCache) Epoch() uint64 { return s.epoch.Load() }

// Hits returns how many vector requests were served from a current-epoch
// entry (including requests that waited out another worker's compute); reads
// served by the engine's node slots are Meter.CacheHits, not hits here.
func (s *SharedCache) Hits() uint64 { return s.hits.Load() }

// Computes returns how many vectors were computed and published.
func (s *SharedCache) Computes() uint64 { return s.computes.Load() }

// InvalidateAll drops every cached vector by bumping the epoch.
func (s *SharedCache) InvalidateAll() { s.epoch.Add(1) }

// entry returns r's cache slot, creating it on first use. The Load fast
// path keeps the steady state allocation-free.
func (s *SharedCache) entry(r *phylotree.Node) *sharedEntry {
	if v, ok := s.entries.Load(r); ok {
		return v.(*sharedEntry)
	}
	v, _ := s.entries.LoadOrStore(r, &sharedEntry{})
	return v.(*sharedEntry)
}

// vector is the store's half of a shared-backed Views.Vector, for an inner
// record r whose node slot holds another orientation: the entry at the
// current epoch, computed and published (its children resolved through v,
// recursively) under per-node single-flight on a miss. Kernel work and meter
// attribution go to v's context, the calling worker's.
func (s *SharedCache) vector(v *Views, r *phylotree.Node) (vec, error) {
	c := v.ctx
	cur := s.epoch.Load()
	en := s.entry(r)
	if en.epoch.Load() == cur {
		// Lock-free hit: the tag store below is the release point of the
		// vector's final write, so a current tag implies a complete vector.
		s.hits.Add(1)
		c.meter.SharedHits++
		return vec{lv: en.lv, sc: en.sc}, nil
	}
	en.mu.Lock()
	if en.epoch.Load() == cur {
		// Another worker computed the slot while we waited on the latch.
		en.mu.Unlock()
		s.hits.Add(1)
		c.meter.SharedHits++
		return vec{lv: en.lv, sc: en.sc}, nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		en.mu.Unlock()
		return vec{}, fmt.Errorf("likelihood: shared view of detached record")
	}
	// Children resolve through the slots and the cache first — the recursion
	// follows the directed dependency DAG away from r, so nested latches
	// cannot cycle.
	qv, err := v.Vector(q)
	if err != nil {
		en.mu.Unlock()
		return vec{}, err
	}
	wv, err := v.Vector(w)
	if err != nil {
		en.mu.Unlock()
		return vec{}, err
	}
	if en.lv == nil {
		en.lv = make([]float64, c.eng.npat*c.eng.ncat*ns)
		en.sc = make([]int32, c.eng.npat)
	}
	c.combine(q, r.Next.Z, qv, w, r.Next.Next.Z, wv, vec{lv: en.lv, sc: en.sc}, nil)
	s.computes.Add(1)
	// Publish: the tag store is the release fence for the vector writes.
	en.epoch.Store(cur)
	en.mu.Unlock()
	return vec{lv: en.lv, sc: en.sc}, nil
}

package likelihood

// StoreBuffers reports the store's buffers: how many it has allocated, how
// many hold a record's vector and how many wait on the free list. It is here
// for the tests of package likelihood_test, which drive the engine from a
// search.
func (e *Engine) StoreBuffers() (allocated, held, free int) {
	for i := range e.store {
		for k := range e.store[i] {
			if e.store[i][k].buf.lv != nil {
				held++
			}
		}
	}
	return e.bufs, held, len(e.free)
}

package lint

// All returns the full raxmlvet analyzer suite in reporting order.
// cmd/raxmlvet registers exactly this list; the registry regression test
// pins the set so an analyzer cannot silently drop out of CI.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		FloatCmp,
		CtxOwnership,
		BackendPurity,
	}
}

// Package coldref is the full-recomputation oracle of the likelihood tests.
// A likelihood.Engine never recomputes a valid vector, so "the same call
// from no cached vector at all" — what every engine call was before the
// cache became unconditional — exists only here: drop everything, then
// call. Tests drive a second engine through these functions and compare the
// caching engine against it, results bit for bit and Meter against Meter.
package coldref

import "raxmlcell/internal/phylotree"

// Engine is the part of *likelihood.Engine the oracle drives. It is an
// interface only so that likelihood's own in-package tests can import this
// package without a cycle.
type Engine interface {
	InvalidateAll()
	Evaluate(p *phylotree.Node) (float64, error)
	MakeNewz(p *phylotree.Node) (z, logL float64, err error)
}

// Evaluate is e.Evaluate(p) with every partial vector recomputed.
func Evaluate(e Engine, p *phylotree.Node) (float64, error) {
	e.InvalidateAll()
	return e.Evaluate(p)
}

// MakeNewz is e.MakeNewz(p) with every partial vector recomputed.
func MakeNewz(e Engine, p *phylotree.Node) (z, logL float64, err error) {
	e.InvalidateAll()
	return e.MakeNewz(p)
}

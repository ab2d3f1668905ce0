// Package util sits OUTSIDE the deterministic scope: simdeterminism
// reports nothing here, but its fact pass marks every function that
// reaches a nondeterministic source, directly or through same-package
// helpers, and the sim package's pass flags the calls (see
// ../frontier.go).
package util

import "time"

// Stamp is a direct source.
func Stamp() int64 { return time.Now().UnixNano() }

// Jitter launders the source through an unexported helper: only the
// interprocedural fixed point connects it to the wall clock.
func Jitter() int64 { return stamp2() + 1 }

func stamp2() int64 { return time.Now().UnixNano() }

// AnyKey is tainted by map-iteration order, not by the clock.
func AnyKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// Clean is a pure helper; calls to it must stay silent.
func Clean(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

package lint_test

import (
	"testing"

	"raxmlcell/internal/lint"
	"raxmlcell/internal/lint/linttest"
)

// The pretend import paths place each golden package inside the scope its
// analyzer guards, exactly as Analyzer.Match will see real packages.

func TestSimDeterminismGolden(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "raxmlcell/internal/sim", "testdata/simdeterminism")
}

// The observability package is inside the widened simdeterminism scope: its
// trace files and metrics snapshots are golden-tested byte for byte, so the
// same bans apply.
func TestSimDeterminismObsGolden(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "raxmlcell/internal/obs", "testdata/simdeterminism/obs")
}

func TestInvalidatePairGolden(t *testing.T) {
	linttest.Run(t, lint.InvalidatePair, "raxmlcell/internal/search", "testdata/invalidatepair")
}

// Every engine caches, so the pairing rule binds wherever an engine can be
// held: the campaign layer's job runner is the golden case outside the
// search layer.
func TestInvalidatePairMWGolden(t *testing.T) {
	linttest.Run(t, lint.InvalidatePair, "raxmlcell/internal/mw", "testdata/invalidatepair/mw")
}

func TestHotPathAllocGolden(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "raxmlcell/internal/likelihood", "testdata/hotpathalloc")
}

func TestHotPathAllocSearchGolden(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "raxmlcell/internal/search", "testdata/hotpathalloc/search")
}

// The obs hot-path helpers (Histogram.Observe, FlightRecorder.Record, the
// span emitters) run once per kernel call or supervision event, so the
// allocation bans extend to them.
func TestHotPathAllocObsGolden(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "raxmlcell/internal/obs", "testdata/hotpathalloc/obs")
}

// The parsimony start trees are in scope: a stepwise step runs one Fitch
// combine per branch of the growing tree, n² per start tree.
func TestHotPathAllocParsimonyGolden(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "raxmlcell/internal/parsimony", "testdata/hotpathalloc/parsimony")
}

func TestFloatCmpGolden(t *testing.T) {
	linttest.Run(t, lint.FloatCmp, "raxmlcell/internal/model", "testdata/floatcmp")
}

// TestNondetTaintGolden is the two-package interprocedural case: the
// util package (outside the deterministic scope) is analyzed first for
// facts, then the sim package's calls into its tainted helpers are
// flagged at the frontier with cross-package witness chains.
func TestNondetTaintGolden(t *testing.T) {
	linttest.RunPkgs(t, lint.NondetTaint, []linttest.PkgSpec{
		{Path: "raxmlcell/internal/util", Dir: "testdata/nondettaint/util"},
		{Path: "raxmlcell/internal/sim", Dir: "testdata/nondettaint"},
	})
}

// TestCtxOwnershipGolden types the owned values in a miniature
// likelihood package and violates the ownership rules from a dependent
// search package — the cross-package half of the invariant.
func TestCtxOwnershipGolden(t *testing.T) {
	linttest.RunPkgs(t, lint.CtxOwnership, []linttest.PkgSpec{
		{Path: "raxmlcell/internal/likelihood", Dir: "testdata/ctxownership/likelihood"},
		{Path: "raxmlcell/internal/search", Dir: "testdata/ctxownership"},
	})
}

func TestBackendPurityGolden(t *testing.T) {
	linttest.Run(t, lint.BackendPurity, "raxmlcell/internal/likelihood", "testdata/backendpurity")
}

// TestScopedAnalyzersSilentOutOfScope runs each scoped analyzer against a
// golden package that would be riddled with findings in scope, under an
// import path outside its jurisdiction: nothing may be reported.
func TestScopedAnalyzersSilentOutOfScope(t *testing.T) {
	cases := []struct {
		a   *lint.Analyzer
		dir string
	}{
		{lint.SimDeterminism, "testdata/simdeterminism"},
		{lint.InvalidatePair, "testdata/invalidatepair"},
		{lint.HotPathAlloc, "testdata/hotpathalloc"},
	}
	for _, c := range cases {
		t.Run(c.a.Name, func(t *testing.T) {
			if c.a.Match("raxmlcell/internal/alignment") {
				t.Fatalf("%s unexpectedly matches internal/alignment", c.a.Name)
			}
			// FloatCmp has no Match and must cover everything; NondetTaint
			// has no Match because its fact pass must run everywhere
			// (reporting is gated on the sim scope inside Run).
			if lint.FloatCmp.Match != nil {
				t.Fatal("floatcmp should be unscoped")
			}
			if lint.NondetTaint.Match != nil {
				t.Fatal("nondettaint must run (for facts) on every package")
			}
		})
	}
}

func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		a    *lint.Analyzer
		path string
		want bool
	}{
		{lint.SimDeterminism, "raxmlcell/internal/sim", true},
		{lint.SimDeterminism, "raxmlcell/internal/cell", true},
		{lint.SimDeterminism, "raxmlcell/internal/cellrt", true},
		{lint.SimDeterminism, "raxmlcell/internal/mw", true},
		{lint.SimDeterminism, "raxmlcell/internal/fault", true},
		{lint.SimDeterminism, "raxmlcell/internal/obs", true},
		{lint.SimDeterminism, "raxmlcell/internal/cellrt [raxmlcell/internal/cellrt.test]", true},
		{lint.SimDeterminism, "raxmlcell/internal/likelihood", false},
		{lint.SimDeterminism, "raxmlcell/internal/wallclock", false}, // the one sanctioned wall-clock impl
		{lint.SimDeterminism, "raxmlcell/internal/cellar", false},    // segment-aligned, no substring tricks
		{lint.InvalidatePair, "raxmlcell/internal/search", true},
		{lint.InvalidatePair, "raxmlcell/internal/core", true},
		{lint.InvalidatePair, "raxmlcell/internal/likelihood", true},
		{lint.InvalidatePair, "raxmlcell/internal/mw", true},
		{lint.InvalidatePair, "raxmlcell/internal/workload", true},
		{lint.InvalidatePair, "raxmlcell/cmd/raxml", true},
		{lint.InvalidatePair, "raxmlcell/examples/quickstart", true},
		{lint.InvalidatePair, "raxmlcell/benchmark", true},
		{lint.InvalidatePair, "raxmlcell/internal/phylotree", false}, // defines SetZ; cannot import an engine
		{lint.InvalidatePair, "raxmlcell/internal/seqsim", false},    // builds trees, never scores them
		{lint.InvalidatePair, "raxmlcell/internal/sim", false},
		{lint.HotPathAlloc, "raxmlcell/internal/likelihood", true},
		{lint.HotPathAlloc, "raxmlcell/internal/search", true},
		{lint.HotPathAlloc, "raxmlcell/internal/obs", true},
		{lint.HotPathAlloc, "raxmlcell/internal/parsimony", true},
		{lint.HotPathAlloc, "raxmlcell/internal/core", false},
		{lint.CtxOwnership, "raxmlcell/internal/likelihood", true},
		{lint.CtxOwnership, "raxmlcell/internal/search", true},
		{lint.CtxOwnership, "raxmlcell/internal/core", true},
		{lint.CtxOwnership, "raxmlcell/cmd/raxmlcell", true},
		{lint.CtxOwnership, "raxmlcell/internal/sim", false},
		{lint.BackendPurity, "raxmlcell/internal/likelihood", true},
		{lint.BackendPurity, "raxmlcell/internal/search", false},
	}
	for _, c := range cases {
		if got := c.a.Match(c.path); got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}

package lint_test

import (
	"testing"

	"raxmlcell/internal/lint"
	"raxmlcell/internal/lint/linttest"
)

// The pretend import paths place each golden package inside the scope its
// analyzer guards, exactly as Analyzer.Match will see real packages.

// TestSimDeterminismGolden is the golden case of the determinism analyzer
// in two packages analyzed in order with shared facts: util, outside the
// deterministic scope, is mined for facts and reports nothing; sim's direct
// sources are flagged at their use sites (sim.go) and its calls into util's
// tainted helpers at the frontier, with cross-package witness chains
// (frontier.go).
func TestSimDeterminismGolden(t *testing.T) {
	linttest.RunPkgs(t, lint.SimDeterminism, []linttest.PkgSpec{
		{Path: "raxmlcell/internal/util", Dir: "testdata/simdeterminism/util"},
		{Path: "raxmlcell/internal/sim", Dir: "testdata/simdeterminism"},
	})
}

// The observability package is inside the widened simdeterminism scope: its
// trace files and metrics snapshots are golden-tested byte for byte, so the
// same use-site bans apply.
func TestSimDeterminismObsGolden(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "raxmlcell/internal/obs", "testdata/simdeterminism/obs")
}

func TestFloatCmpGolden(t *testing.T) {
	linttest.Run(t, lint.FloatCmp, "raxmlcell/internal/model", "testdata/floatcmp")
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

// TestScopedAnalyzersSilentOutOfScope checks that no scoped analyzer
// reports outside its jurisdiction. simdeterminism runs everywhere, for its
// facts, so its golden packages — riddled with findings in scope — are
// analyzed under import paths outside the scope and nothing may be reported;
// the others must not match such a path at all. floatcmp is unscoped.
func TestScopedAnalyzersSilentOutOfScope(t *testing.T) {
	t.Run(lint.SimDeterminism.Name, func(t *testing.T) {
		if lint.SimDeterminism.Match != nil {
			t.Fatal("simdeterminism must run (for facts) on every package")
		}
		_, diags := linttest.Analyze(t, lint.SimDeterminism, []linttest.PkgSpec{
			{Path: "raxmlcell/internal/util", Dir: "testdata/simdeterminism/util"},
			{Path: "raxmlcell/internal/alignment", Dir: "testdata/simdeterminism"},
			{Path: "raxmlcell/internal/wallclock", Dir: "testdata/simdeterminism/obs"},
		})
		for _, d := range diags {
			t.Errorf("simdeterminism reported out of scope: %s", d)
		}
	})
	for _, a := range []*lint.Analyzer{lint.CtxOwnership, lint.BackendPurity} {
		t.Run(a.Name, func(t *testing.T) {
			if a.Match("raxmlcell/internal/sim") {
				t.Errorf("%s unexpectedly matches internal/sim", a.Name)
			}
		})
	}
	t.Run(lint.FloatCmp.Name, func(t *testing.T) {
		if lint.FloatCmp.Match != nil {
			t.Fatal("floatcmp should be unscoped")
		}
	})
}

func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		a    *lint.Analyzer
		path string
		want bool
	}{
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

package core

import (
	"errors"
	"testing"

	"raxmlcell/internal/fault"
	"raxmlcell/internal/mw"
)

// TestAnalyzeUnderChaosMatchesFaultFree is the end-to-end determinism
// check: a full analysis under crash+corrupt injection with retries must
// produce exactly the fault-free analysis — same best tree, same
// log-likelihood, same support values.
func TestAnalyzeUnderChaosMatchesFaultFree(t *testing.T) {
	pat, _ := testPatterns(t, 9, 400, 11)
	cfg := fastConfig()
	cfg.Inferences = 2
	cfg.Bootstraps = 4
	cfg.Seed = 101

	clean, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}

	chaos := cfg
	chaos.Retries = 10
	inj, err := fault.New(fault.Config{Seed: 101, PCrash: 0.3, PCorrupt: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	chaos.Fault = inj
	got, err := Analyze(pat, chaos)
	if err != nil {
		t.Fatal(err)
	}

	if got.Best.Newick() != clean.Best.Newick() {
		t.Error("best tree differs under fault injection")
	}
	if got.BestLogL != clean.BestLogL || got.Alpha != clean.Alpha {
		t.Errorf("best fit differs: (%v,%v) vs (%v,%v)", got.BestLogL, got.Alpha, clean.BestLogL, clean.Alpha)
	}
	if len(got.Support) != len(clean.Support) {
		t.Fatalf("support size %d vs %d", len(got.Support), len(clean.Support))
	}
	for b, v := range clean.Support {
		if got.Support[b] != v {
			t.Errorf("support for %q differs: %v vs %v", b, got.Support[b], v)
		}
	}
	if got.Meter != clean.Meter {
		t.Error("aggregate meter differs under fault injection (retried jobs must not double-count)")
	}
	if got.Stats.Retries == 0 {
		t.Error("chaos analysis recorded no retries; injector apparently inert")
	}
	if len(got.Quarantined) != 0 {
		t.Errorf("jobs quarantined despite 10-attempt budget: %d", len(got.Quarantined))
	}
}

// TestAnalyzeQuarantineLimit covers both sides of the graceful-degradation
// contract: the default zero tolerance aborts a campaign with permanently
// failing jobs, while MaxQuarantine = -1 lets it complete with a partial
// report.
func TestAnalyzeQuarantineLimit(t *testing.T) {
	pat, _ := testPatterns(t, 9, 400, 13)
	cfg := fastConfig()
	cfg.Inferences = 2
	cfg.Bootstraps = 5
	cfg.Seed = 7

	// Crash roughly half of all attempts with no retry budget: some jobs
	// must quarantine.
	inj, err := fault.New(fault.Config{Seed: 3, PCrash: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	strict := cfg
	strict.Fault = inj
	if _, err := Analyze(pat, strict); err == nil {
		t.Error("default MaxQuarantine=0 tolerated quarantined jobs")
	} else if !errors.Is(err, mw.ErrCampaignAborted) {
		t.Errorf("abort error %v does not wrap mw.ErrCampaignAborted", err)
	}

	tolerant := cfg
	tolerant.Fault = inj
	tolerant.MaxQuarantine = -1
	a, err := Analyze(pat, tolerant)
	if err != nil {
		t.Fatalf("unlimited-quarantine analysis failed: %v", err)
	}
	if len(a.Quarantined) == 0 {
		t.Fatal("expected quarantined jobs under p=0.5 crashes without retries")
	}
	if a.Best == nil || a.BestLogL >= 0 {
		t.Error("partial analysis lost its best tree")
	}
	if err := a.Best.Validate(); err != nil {
		t.Error(err)
	}
	survivors := 0
	for _, r := range a.Results {
		if r.Err == nil {
			survivors++
		}
	}
	if survivors+len(a.Quarantined) != len(a.Results) {
		t.Errorf("%d survivors + %d quarantined != %d jobs", survivors, len(a.Quarantined), len(a.Results))
	}
	// Support, when present, must come from surviving replicates only.
	if len(a.Support) > 0 {
		if mean := meanSupport(a.Support); mean < 0 || mean > 1 {
			t.Errorf("mean support %v out of range", mean)
		}
	}
}

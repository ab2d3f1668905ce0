package mw

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"raxmlcell/internal/fault"
)

func TestCheckpointResume(t *testing.T) {
	pat, m := testData(t, 7, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	jobs := Plan(2, 3, 31)

	// Phase 1: run only the first two jobs "before the crash".
	partialRep, err := SuperviseWithCheckpoint(pat, m, jobs[:2], Config{Workers: 2, Search: fastSearch()}, path)
	if err != nil {
		t.Fatal(err)
	}
	partial := partialRep.Results
	if len(partial) != 2 {
		t.Fatalf("partial results = %d", len(partial))
	}

	// Phase 2: restart with the full job list; only the remaining three run.
	fullRep, err := SuperviseWithCheckpoint(pat, m, jobs, Config{Workers: 2, Search: fastSearch()}, path)
	if err != nil {
		t.Fatal(err)
	}
	full := fullRep.Results
	if len(full) != len(jobs) {
		t.Fatalf("full results = %d, want %d", len(full), len(jobs))
	}

	// Results must equal a fresh uncheckpointed run bit for bit (jobs are
	// seed-determined).
	freshRep, err := Supervise(pat, m, jobs, Config{Workers: 2, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshRep.Results
	for i := range fresh {
		if fresh[i].Job != full[i].Job || fresh[i].Newick != full[i].Newick || fresh[i].LogL != full[i].LogL {
			t.Errorf("job %d differs between fresh and resumed runs", i)
		}
	}

	// Phase 3: everything checkpointed -> nothing re-runs, instant return.
	againRep, err := SuperviseWithCheckpoint(pat, m, jobs, Config{Workers: 2, Search: fastSearch()}, path)
	if err != nil {
		t.Fatal(err)
	}
	again := againRep.Results
	if len(again) != len(jobs) {
		t.Fatalf("no-op resume results = %d", len(again))
	}
}

func TestCheckpointFileFormat(t *testing.T) {
	pat, m := testData(t, 6, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if _, err := SuperviseWithCheckpoint(pat, m, Plan(1, 1, 5), Config{Workers: 1, Search: fastSearch()}, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d results", len(loaded))
	}
	for _, r := range loaded {
		if r.Newick == "" || r.LogL >= 0 || r.Meter.NewviewCalls == 0 {
			t.Errorf("round-tripped result lost data: %+v", r.Job)
		}
	}
	// Corrupted file rejected.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	// Wrong version rejected.
	if err := os.WriteFile(path, []byte(`{"version":99,"done":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("version mismatch accepted")
	}
	// Missing file is empty, not an error.
	got, err := LoadCheckpoint(filepath.Join(dir, "absent.json"))
	if err != nil || got != nil {
		t.Errorf("missing checkpoint: %v, %v", got, err)
	}
	// Empty path rejected by SuperviseWithCheckpoint.
	if _, err := SuperviseWithCheckpoint(pat, m, Plan(1, 0, 5), Config{}, ""); err == nil {
		t.Error("empty path accepted")
	}
}

// TestCheckpointRecoversTruncatedFile is the issue's acceptance scenario: a
// checkpoint truncated mid-write must not abort the campaign. The damaged
// file is set aside and the run resumes from the last valid state, finishing
// with results bit-identical to a fresh run.
func TestCheckpointRecoversTruncatedFile(t *testing.T) {
	pat, m := testData(t, 7, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	jobs := Plan(2, 2, 47)

	if _, err := SuperviseWithCheckpoint(pat, m, jobs[:2], Config{Workers: 2, Search: fastSearch()}, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := SuperviseWithCheckpoint(pat, m, jobs, Config{Workers: 2, Search: fastSearch()}, path)
	if err != nil {
		t.Fatalf("truncated checkpoint aborted the campaign: %v", err)
	}
	if !rep.Stats.CheckpointRecovered {
		t.Error("CheckpointRecovered not reported")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("damaged checkpoint not set aside: %v", err)
	}
	freshRep, err := Supervise(pat, m, jobs, Config{Workers: 2, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshRep.Results
	if len(rep.Results) != len(fresh) {
		t.Fatalf("recovered run has %d results, want %d", len(rep.Results), len(fresh))
	}
	for i := range fresh {
		if fresh[i].Job != rep.Results[i].Job || fresh[i].Newick != rep.Results[i].Newick || fresh[i].LogL != rep.Results[i].LogL {
			t.Errorf("job %d differs between fresh and recovered runs", i)
		}
	}
	// The rewritten checkpoint must be valid and complete again.
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(jobs) {
		t.Errorf("rewritten checkpoint has %d entries, want %d", len(loaded), len(jobs))
	}
}

// TestCheckpointWriteFaultsTolerated injects checkpoint-write failures: the
// campaign must complete anyway, defer the failed saves, and leave a valid,
// complete checkpoint behind.
func TestCheckpointWriteFaultsTolerated(t *testing.T) {
	pat, m := testData(t, 6, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	jobs := Plan(2, 4, 59)

	inj, err := fault.New(fault.Config{Seed: 8, PCheckpoint: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SuperviseWithCheckpoint(pat, m, jobs, Config{Workers: 3, Search: fastSearch(), Fault: inj}, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CheckpointFailures == 0 {
		t.Error("no checkpoint failures recorded despite p=0.6 injector")
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("final checkpoint invalid: %v", err)
	}
	if len(loaded) != len(jobs) {
		t.Errorf("final checkpoint has %d entries, want %d", len(loaded), len(jobs))
	}
	for _, r := range loaded {
		if r.Err != nil {
			t.Errorf("job %+v persisted as failed: %v", r.Job, r.Err)
		}
	}
}

// TestResumedFailureIsRetried is the regression test for the Err
// round-tripping fix: a failed job restored from a checkpoint must carry
// the ErrResumed sentinel and must be re-run on resume instead of being
// treated as done.
func TestResumedFailureIsRetried(t *testing.T) {
	pat, m := testData(t, 7, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	jobs := Plan(1, 1, 67)

	// Forge a checkpoint in which the inference failed and the bootstrap
	// succeeded with a stale (but valid) payload.
	goodRep, err := Supervise(pat, m, jobs, Config{Workers: 1, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	good := goodRep.Results
	forged := []JobResult{
		{Job: jobs[0], Err: errors.New("worker lost during previous campaign")},
		good[1],
	}
	if err := saveCheckpoint(path, forged); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var restoredErr error
	for _, r := range loaded {
		if r.Job == jobs[0] {
			restoredErr = r.Err
		}
	}
	if restoredErr == nil {
		t.Fatal("forged failure lost on load")
	}
	if !errors.Is(restoredErr, ErrResumed) {
		t.Errorf("restored error %v does not wrap ErrResumed", restoredErr)
	}

	rep, err := SuperviseWithCheckpoint(pat, m, jobs, Config{Workers: 1, Search: fastSearch()}, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("job %+v still failed after resume: %v", r.Job, r.Err)
		}
	}
	if rep.Stats.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (only the restored failure re-runs)", rep.Stats.Attempts)
	}
	if rep.Results[0].Newick != good[0].Newick {
		t.Error("re-run job differs from fresh result")
	}
}

// TestCheckpointEntrySanitization: duplicate jobs are deduplicated and
// "successful" entries with invalid payloads are downgraded to restored
// failures, so they re-run.
func TestCheckpointEntrySanitization(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	blob := `{"version":1,"done":[
	 {"kind":0,"index":0,"seed":5,"newick":"(a:0.1,b:0.1,(c:0.1,d:0.1):0.1);","logl":-10,"alpha":0.9,"meter":{}},
	 {"kind":0,"index":0,"seed":5,"err":"late duplicate failure"},
	 {"kind":1,"index":0,"seed":9,"newick":"(a:0.1,(b:0.1","logl":-12,"alpha":0.9,"meter":{}},
	 {"kind":1,"index":1,"seed":13,"newick":"(a:0.1,b:0.1,(c:0.1,d:0.1):0.1);","logl":-12,"alpha":-3,"meter":{}}
	]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d entries, want 3 after dedup", len(loaded))
	}
	byJob := map[Job]JobResult{}
	for _, r := range loaded {
		byJob[r.Job] = r
	}
	if r := byJob[Job{Kind: Inference, Index: 0, Seed: 5}]; r.Err != nil {
		t.Errorf("valid entry lost to duplicate failure: %v", r.Err)
	}
	if r := byJob[Job{Kind: Bootstrap, Index: 0, Seed: 9}]; r.Err == nil || !errors.Is(r.Err, ErrResumed) {
		t.Errorf("torn-newick entry not downgraded to restored failure: %+v", r)
	}
	if r := byJob[Job{Kind: Bootstrap, Index: 1, Seed: 13}]; r.Err == nil || !errors.Is(r.Err, ErrInvalidResult) {
		t.Errorf("invalid-alpha entry not rejected: %+v", r)
	}
}

// TestCheckpointRates: fitted GTR exchangeabilities survive a save and load
// bit for bit; a result without them writes no "rates" field, so a campaign
// that fits none writes the bytes it wrote before results carried rates,
// and a file of that format loads with nil rates; an entry with a rate that
// is not positive is downgraded to a restored failure.
func TestCheckpointRates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	nwk := "(a:0.1,b:0.1,(c:0.1,d:0.1):0.1);"
	rates := [6]float64{1.2345678901234567, 3.4, 0.9, 1.1, 4.2, 1}
	fitted := JobResult{Job: Job{Kind: Inference, Index: 0, Seed: 5}, Newick: nwk, LogL: -10, Alpha: 0.9, Rates: &rates}
	plain := JobResult{Job: Job{Kind: Bootstrap, Index: 0, Seed: 9}, Newick: nwk, LogL: -12, Alpha: 0.7}
	if err := saveCheckpoint(path, []JobResult{plain, fitted}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`"rates"`)); n != 1 {
		t.Errorf(`%d "rates" fields for one fitted result:\n%s`, n, raw)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0].Rates == nil || *loaded[0].Rates != rates || loaded[1].Rates != nil {
		t.Fatalf("loaded %+v, want the fitted rates on the inference and none on the bootstrap", loaded)
	}

	blob := `{"version":1,"done":[
	 {"kind":0,"index":0,"seed":5,"newick":"` + nwk + `","logl":-10,"alpha":0.9,"meter":{}},
	 {"kind":1,"index":0,"seed":9,"newick":"` + nwk + `","logl":-12,"alpha":0.9,"rates":[1,2,0,1,1,1],"meter":{}}
	]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0].Err != nil || loaded[0].Rates != nil {
		t.Fatalf("an entry without rates loaded as %+v", loaded)
	}
	if r := loaded[1]; !errors.Is(r.Err, ErrInvalidResult) || !errors.Is(r.Err, ErrResumed) {
		t.Errorf("an entry with a zero rate loaded as %+v", r)
	}
}

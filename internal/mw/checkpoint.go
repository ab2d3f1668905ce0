package mw

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/fault"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/obs"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// ErrResumed is wrapped around job errors restored from a checkpoint, so
// callers can tell a replayed failure from a live one. Restored failures
// are never treated as completed work: SuperviseWithCheckpoint re-runs them.
var ErrResumed = errors.New("mw: failure restored from checkpoint")

// savedResult is the serializable form of a JobResult.
type savedResult struct {
	Kind   JobKind          `json:"kind"`
	Index  int              `json:"index"`
	Seed   int64            `json:"seed"`
	Newick string           `json:"newick"`
	LogL   float64          `json:"logl"`
	Alpha  float64          `json:"alpha"`
	Rates  *[6]float64      `json:"rates,omitempty"`
	Meter  likelihood.Meter `json:"meter"`
	Err    string           `json:"err,omitempty"`
}

type checkpointFile struct {
	Version int           `json:"version"`
	Done    []savedResult `json:"done"`
}

func toSaved(r JobResult) savedResult {
	s := savedResult{Kind: r.Job.Kind, Index: r.Job.Index, Seed: r.Job.Seed}
	if r.Err != nil {
		// Failed jobs carry no payload: the numbers of a failed attempt
		// are meaningless, and a NaN log-likelihood (e.g. from a corrupted
		// result) would not even survive JSON encoding.
		s.Err = r.Err.Error()
		return s
	}
	s.Newick, s.LogL, s.Alpha, s.Rates, s.Meter = r.Newick, r.LogL, r.Alpha, r.Rates, r.Meter
	return s
}

func fromSaved(s savedResult) JobResult {
	r := JobResult{
		Job:    Job{Kind: s.Kind, Index: s.Index, Seed: s.Seed},
		Newick: s.Newick, LogL: s.LogL, Alpha: s.Alpha, Rates: s.Rates, Meter: s.Meter,
	}
	if s.Err != "" {
		r.Err = fmt.Errorf("%s: %w", s.Err, ErrResumed)
	}
	return r
}

// decodeCheckpoint parses and sanitizes raw checkpoint bytes. File-level
// damage (bad JSON, version skew) is an error; entry-level damage is
// recovered: duplicate jobs are deduplicated (a valid result wins over a
// failure, otherwise the last entry wins) and a "successful" entry whose
// payload fails validation is downgraded to a restored failure so the job
// is re-run rather than trusted.
func decodeCheckpoint(raw []byte) ([]JobResult, error) {
	var cf checkpointFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return nil, fmt.Errorf("mw: parsing checkpoint: %w", err)
	}
	if cf.Version != checkpointVersion {
		return nil, fmt.Errorf("mw: checkpoint version %d, want %d", cf.Version, checkpointVersion)
	}
	byJob := make(map[Job]int, len(cf.Done))
	out := make([]JobResult, 0, len(cf.Done))
	for _, s := range cf.Done {
		r := fromSaved(s)
		if r.Err == nil {
			if verr := ValidateResult(&r); verr != nil {
				r = JobResult{Job: r.Job, Err: fmt.Errorf("%w: %w", verr, ErrResumed)}
			}
		}
		if i, ok := byJob[r.Job]; ok {
			if out[i].Err == nil && r.Err != nil {
				continue // keep the valid duplicate
			}
			out[i] = r
			continue
		}
		byJob[r.Job] = len(out)
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// LoadCheckpoint reads previously completed jobs from path. A missing file
// is not an error: it returns an empty set. File-level corruption (torn
// JSON, version skew) is an error; see RecoverCheckpoint for the lenient
// loader the campaign runner uses.
func LoadCheckpoint(path string) ([]JobResult, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("mw: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(raw)
}

// RecoverCheckpoint is the fault-tolerant loader: file-level damage — a
// file truncated mid-write, torn JSON, version skew — is sidestepped by
// renaming the damaged file to path+".corrupt" and resuming from the empty
// state. Jobs are seed-determined, so re-running them reproduces the lost
// results exactly; nothing is silently wrong, merely recomputed. recovered
// reports whether a damaged file was set aside. Only real I/O errors fail.
func RecoverCheckpoint(path string) (results []JobResult, recovered bool, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("mw: reading checkpoint: %w", err)
	}
	results, derr := decodeCheckpoint(raw)
	if derr == nil {
		return results, false, nil
	}
	aside := path + ".corrupt"
	if rerr := os.Rename(path, aside); rerr != nil {
		return nil, false, fmt.Errorf("mw: checkpoint damaged (%v) and could not be set aside: %w", derr, rerr)
	}
	return nil, true, nil
}

// saveCheckpoint writes the completed set atomically (temp file + rename),
// in (kind, index) order so the file is reproducible for a given state.
func saveCheckpoint(path string, done []JobResult) error {
	sorted := append([]JobResult(nil), done...)
	sortResults(sorted)
	cf := checkpointFile{Version: checkpointVersion}
	for _, r := range sorted {
		cf.Done = append(cf.Done, toSaved(r))
	}
	raw, err := json.MarshalIndent(&cf, "", " ")
	if err != nil {
		return fmt.Errorf("mw: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("mw: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("mw: committing checkpoint: %w", err)
	}
	return nil
}

// checkpointer persists campaign progress. It runs entirely in the
// collector goroutine of supervise, so no locking is needed. A failed save
// (injected or real) is deferred rather than fatal: the next save rewrites
// the full completed set, and flush retries once more at campaign end.
type checkpointer struct {
	path     string
	inj      *fault.Injector
	cfg      *Config        // for Log/Metrics/Trace/Flight; never nil once constructed
	saveHist *obs.Histogram // checkpoint.save_ms (nil without Metrics)
	done     []JobResult
	idx      map[Job]int
	writes   int // save ordinals, for deterministic fault decisions
	failures int
	dirty    bool
}

func newCheckpointer(path string, cfg *Config, restored []JobResult) *checkpointer {
	c := &checkpointer{path: path, inj: cfg.Fault, cfg: cfg, idx: make(map[Job]int, len(restored))}
	if cfg.Metrics != nil {
		c.saveHist = cfg.Metrics.Histogram("checkpoint.save_ms", obs.MsBuckets)
	}
	for _, r := range restored {
		c.idx[r.Job] = len(c.done)
		c.done = append(c.done, r)
	}
	return c
}

func (c *checkpointer) noteFailure(err error) {
	c.failures++
	c.dirty = true
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter("mw.checkpoint_failures").Inc()
	}
	c.cfg.Log.Warn("checkpoint write failed, deferred", "path", c.path,
		"failures", c.failures, "error", err)
}

func (c *checkpointer) record(o *outcome) {
	if i, ok := c.idx[o.result.Job]; ok {
		c.done[i] = o.result // re-run of a restored failure replaces it
	} else {
		c.idx[o.result.Job] = len(c.done)
		c.done = append(c.done, o.result)
	}
	c.writes++
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter("mw.checkpoint_writes").Inc()
	}
	label := jobLabel(o.result.Job)
	sp := c.cfg.Trace.WithTrack("checkpoint").Start("checkpoint.save", "mw")
	if c.inj != nil && c.inj.CheckpointWrite(c.writes) {
		sp.EndObserve(c.saveHist)
		c.cfg.Flight.Record("checkpoint.fail", label, 0, -1, fault.ErrInjected.Error())
		c.noteFailure(fault.ErrInjected)
		return
	}
	if err := saveCheckpoint(c.path, c.done); err != nil {
		sp.EndObserve(c.saveHist)
		c.cfg.Flight.Record("checkpoint.fail", label, 0, -1, err.Error())
		c.noteFailure(err)
		return
	}
	sp.EndObserve(c.saveHist)
	c.cfg.Flight.Record("checkpoint.save", label, 0, -1, "")
	c.dirty = false
}

// flush persists any deferred state; it bypasses fault injection — it
// models the master retrying the final save until the filesystem answers.
func (c *checkpointer) flush() error {
	if !c.dirty {
		return nil
	}
	if err := saveCheckpoint(c.path, c.done); err != nil {
		return fmt.Errorf("mw: final checkpoint save failed after %d deferred failures: %w", c.failures, err)
	}
	c.dirty = false
	return nil
}

// SuperviseWithCheckpoint behaves like Supervise but persists every
// completed job to path and, on restart, skips jobs the checkpoint already
// covers — the recovery story a multi-day bootstrap campaign needs. The
// checkpoint is written atomically after each job, so a crash loses at most
// the jobs in flight; because jobs are fully seed-determined, re-running
// them after a restart yields identical results. A damaged checkpoint file
// is set aside (path+".corrupt") instead of aborting the campaign, and
// restored failures are re-run rather than trusted.
func SuperviseWithCheckpoint(pat *alignment.Patterns, mod *model.Model, jobs []Job, cfg Config, path string) (*Report, error) {
	if path == "" {
		return nil, fmt.Errorf("mw: empty checkpoint path")
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	restored, recovered, err := RecoverCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if recovered {
		cfg.Log.Warn("damaged checkpoint set aside, lost jobs will be recomputed",
			"path", path, "aside", path+".corrupt")
		cfg.Trace.WithTrack("checkpoint").Instant("checkpoint.recover", "mw")
		cfg.Flight.Record("checkpoint.recover", "", 0, -1, "damaged file set aside: "+path+".corrupt")
	}
	if len(restored) > 0 {
		cfg.Log.Info("resuming from checkpoint", "path", path, "restored", len(restored))
		cfg.Flight.Record("checkpoint.resume", "", 0, -1, fmt.Sprintf("restored=%d", len(restored)))
	}
	restoredOK := make(map[Job]bool, len(restored))
	for _, r := range restored {
		if r.Err == nil {
			restoredOK[r.Job] = true
		}
	}
	var remaining []Job
	for _, j := range jobs {
		if !restoredOK[j] {
			remaining = append(remaining, j)
		}
	}

	ckpt := newCheckpointer(path, &cfg, restored)
	rep, serr := supervise(pat, mod, remaining, cfg, ckpt.record)
	if rep != nil {
		rep.Stats.CheckpointFailures = ckpt.failures
		rep.Stats.CheckpointRecovered = recovered
		all := append([]JobResult(nil), ckpt.done...)
		sortResults(all)
		rep.Results = all
		// The merged meter must cover restored jobs too, not just the
		// remainder this run executed.
		rep.Meter = aggregateMeter(all)
		obs.PublishMeter(cfg.Metrics, &rep.Meter)
	}
	if serr != nil {
		_ = ckpt.flush() // best-effort persistence of the partial state
		return rep, serr
	}
	if err := ckpt.flush(); err != nil {
		return rep, err
	}
	return rep, nil
}

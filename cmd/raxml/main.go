// Command raxml is the end-to-end inference tool of the reproduction: it
// reads a DNA alignment (PHYLIP or FASTA), runs multiple maximum likelihood
// tree searches plus non-parametric bootstrapping under GTR+Γ with the
// master-worker runtime, and reports the best-known ML tree with bootstrap
// support values.
//
// Usage:
//
//	raxml -in data.phy -inferences 3 -bootstraps 20 -workers 4 -out best.nwk
//
// Observability: -v raises logging to Debug (per-job lifecycle and search
// trajectories), -quiet lowers it to warnings only, and -debug-addr starts
// an HTTP server exposing net/http/pprof under /debug/pprof/, a /metrics
// JSON snapshot of the live supervision counters and kernel meter, and
// /debug/flight. -trace-out records a wall-clock Chrome trace of the
// campaign (open in Perfetto); -flight-out dumps the flight recorder's final
// window for post-mortems.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sort"
	"strings"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/core"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/wallclock"
)

// fatal logs the error through the structured logger and exits non-zero.
func fatal(log *slog.Logger, err error) {
	log.Error("fatal", "error", err)
	os.Exit(1)
}

// writeAndValidate writes an observability artifact to path and re-reads it
// through its validator, returning the validated record count.
func writeAndValidate(path string, write func(*os.File) error, validate func(*os.File) (int, error)) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	rf, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer rf.Close()
	return validate(rf)
}

// dumpObs writes the wall-clock Chrome trace and the flight recorder's
// final event window to the requested files, self-validating each artifact
// on the way out. It runs after the campaign whether or not it succeeded —
// a failed run is when the post-mortems matter most.
func dumpObs(tracer *obs.SpanTracer, flight *obs.FlightRecorder, tracePath, flightPath string) error {
	if tracePath != "" && tracer != nil {
		n, err := writeAndValidate(tracePath,
			func(f *os.File) error { return tracer.WriteJSON(f) },
			func(f *os.File) (int, error) { return obs.ValidateTrace(f) })
		if err != nil {
			return fmt.Errorf("trace %s: %w", tracePath, err)
		}
		fmt.Printf("trace: %d events written to %s\n", n, tracePath)
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("trace: %d events dropped at the %d-event cap\n", d, obs.DefaultMaxSpanEvents)
		}
	}
	if flightPath != "" && flight != nil {
		n, err := writeAndValidate(flightPath,
			func(f *os.File) error { return flight.WriteJSON(f) },
			func(f *os.File) (int, error) { return obs.ValidateFlight(f) })
		if err != nil {
			return fmt.Errorf("flight %s: %w", flightPath, err)
		}
		fmt.Printf("flight: %d events written to %s\n", n, flightPath)
	}
	return nil
}

func main() {
	d := core.DefaultConfig()
	var (
		in         = flag.String("in", "", "input alignment (PHYLIP, FASTA or NEXUS; required)")
		inferences = flag.Int("inferences", d.Inferences, "number of independent tree searches")
		bootstraps = flag.Int("bootstraps", d.Bootstraps, "number of bootstrap replicates")
		seed       = flag.Int64("seed", d.Seed, "master random seed")
		workers    = flag.Int("workers", d.Workers, "parallel workers (the MPI process count)")
		radius     = flag.Int("radius", d.Search.Radius, "SPR rearrangement radius")
		rounds     = flag.Int("rounds", d.Search.MaxRounds, "maximum SPR rounds per search")
		catCats    = flag.Int("cat", 0, "after the campaign, re-fit the best tree under a CAT model with this many per-site rate categories (0 = off; RAxML default 25)")
		optModel   = flag.Bool("opt-model", false, "fit the GTR exchangeabilities on each final tree")
		startTree  = flag.String("start", "parsimony", "starting tree: parsimony (randomized stepwise addition, each taxon on the branch of least Fitch score), nj or random")
		checkpoint = flag.String("checkpoint", "", "persist completed jobs to this file and resume from it")
		retries    = flag.Int("retries", d.Retries, "attempts per job, the first included: a job that fails (crash, timeout, invalid result) is retried until it has had this many (1 = no retry)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job attempt deadline; an attempt still running then is stopped, within one SPR prune for a search, and retried (0 = none)")
		maxQuar    = flag.Int("max-quarantine", 0, "jobs allowed to fail all attempts before the campaign aborts (-1 = unlimited, report partial results)")
		draw       = flag.Bool("draw", false, "print an ASCII rendering of the best tree")
		treesOut   = flag.String("trees-out", "", "write all result trees (best + bootstraps) to this NEXUS file")
		out        = flag.String("out", "", "write the best tree (Newick) to this file")
		verbose    = flag.Bool("v", false, "debug logging: per-job lifecycle, retries, search trajectories")
		quiet      = flag.Bool("quiet", false, "log warnings and errors only")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof/, /metrics and /debug/flight on this address (e.g. localhost:6060) for the duration of the run")
		traceOut   = flag.String("trace-out", "", "record a wall-clock Chrome trace of the campaign (spans for jobs, attempts, search rounds) and write it to this file")
		flightOut  = flag.String("flight-out", "", "write the flight recorder's final event window (JSON) to this file")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, obs.Level(*verbose, *quiet))
	metrics := obs.NewRegistry()

	// One monotonic clock feeds every wall-clock observer so span starts,
	// flight timestamps and histogram samples share an epoch. The tracer is
	// always constructed (it is the campaign's time source for the latency
	// histograms) but only retains events when a trace was asked for.
	now := wallclock.Monotonic()
	tracer := obs.NewSpanTracer(now)
	tracer.SetRecording(*traceOut != "")
	var flight *obs.FlightRecorder
	if *flightOut != "" || *debugAddr != "" {
		flight = obs.NewFlightRecorder(0, now)
	}

	if *debugAddr != "" {
		srv, addr, err := obs.StartDebugServer(*debugAddr, metrics, flight)
		if err != nil {
			fatal(logger, err)
		}
		defer srv.Close()
		logger.Info("debug server listening",
			"pprof", fmt.Sprintf("http://%s/debug/pprof/", addr),
			"metrics", fmt.Sprintf("http://%s/metrics", addr),
			"flight", fmt.Sprintf("http://%s/debug/flight", addr))
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(logger, err)
	}
	var a *alignment.Alignment
	switch {
	case strings.HasSuffix(*in, ".fa") || strings.HasSuffix(*in, ".fasta"):
		a, err = alignment.ReadFasta(f)
	case strings.HasSuffix(*in, ".nex") || strings.HasSuffix(*in, ".nexus"):
		a, err = alignment.ReadNexus(f)
	default:
		a, err = alignment.ReadPhylip(f)
	}
	f.Close()
	if err != nil {
		fatal(logger, err)
	}
	pat := alignment.Compress(a)
	fmt.Printf("alignment: %d taxa x %d sites (%d distinct patterns)\n",
		pat.NumTaxa, pat.NumSites, pat.NumPatterns())

	// The Gamma shape starts at d's 0.8 over 4 categories and the kernels
	// are the default backend; DESIGN.md's flag audit says why no flag
	// changes them.
	cfg := d
	cfg.Inferences, cfg.Bootstraps, cfg.Seed, cfg.Workers = *inferences, *bootstraps, *seed, *workers
	cfg.StartTree, cfg.Checkpoint = *startTree, *checkpoint
	cfg.Retries, cfg.JobTimeout, cfg.MaxQuarantine = *retries, *jobTimeout, *maxQuar
	cfg.Search.Radius, cfg.Search.MaxRounds, cfg.Search.ModelOpt = *radius, *rounds, *optModel
	cfg.Log, cfg.Metrics, cfg.Trace, cfg.Flight = logger, metrics, tracer.Root("campaign"), flight
	analysis, err := core.Analyze(pat, cfg)
	// Dump the trace and flight window before acting on the campaign error:
	// a failed run is exactly when the post-mortem artifacts matter.
	if derr := dumpObs(tracer, flight, *traceOut, *flightOut); derr != nil {
		logger.Error("observability dump failed", "error", derr)
	}
	if err != nil {
		fatal(logger, err)
	}

	if *verbose {
		for _, r := range analysis.Results {
			if r.Err != nil {
				fmt.Printf("  %-9v #%-3d quarantined: %v\n", r.Job.Kind, r.Job.Index, r.Err)
				continue
			}
			fmt.Printf("  %-9v #%-3d logL=%.4f alpha=%.3f\n",
				r.Job.Kind, r.Job.Index, r.LogL, r.Alpha)
		}
	}
	st := analysis.Stats
	if st.Retries > 0 || st.Timeouts > 0 || len(analysis.Quarantined) > 0 ||
		st.CheckpointFailures > 0 || st.CheckpointRecovered {
		fmt.Printf("supervision: %d attempts for %d jobs (%d retries, %d timeouts), %d quarantined\n",
			st.Attempts, len(analysis.Results), st.Retries, st.Timeouts, len(analysis.Quarantined))
		if st.CheckpointFailures > 0 {
			fmt.Printf("supervision: %d checkpoint write failures deferred and flushed\n", st.CheckpointFailures)
		}
		if st.CheckpointRecovered {
			fmt.Println("supervision: damaged checkpoint set aside (.corrupt); lost jobs recomputed")
		}
		for _, q := range analysis.Quarantined {
			fmt.Printf("  quarantined %v #%d after %d attempts: %v\n", q.Job.Kind, q.Job.Index, q.Attempts, q.Err)
		}
	}
	fmt.Printf("best ML tree: logL=%.4f alpha=%.3f\n", analysis.BestLogL, analysis.Alpha)
	if *bootstraps > 0 {
		vals := make([]float64, 0, len(analysis.Support))
		for _, v := range analysis.Support {
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			fmt.Println("bootstrap support: no surviving replicates")
		} else {
			sort.Float64s(vals)
			mean := 0.0
			for _, v := range vals {
				mean += v
			}
			mean /= float64(len(vals))
			fmt.Printf("bootstrap support over %d internal branches: mean %.2f, min %.2f, max %.2f\n",
				len(vals), mean, vals[0], vals[len(vals)-1])
		}
	}
	fmt.Printf("kernel profile: %s rowShare=%.3f\n", analysis.Meter.String(), analysis.Meter.RowShare())
	// Schedule-dependent, so it goes to the log and not to stdout, which is
	// byte-identical at any GOMAXPROCS.
	blocks, adopted := likelihood.RangeBlocks()
	logger.Debug("range executor", "blocks", blocks, "adopted", adopted,
		"adopted_share", float64(adopted)/math.Max(1, float64(blocks)))

	if *catCats > 1 {
		_, catLL, err := core.InferCAT(pat, cfg, analysis.Best, analysis.Rates, *catCats)
		if err != nil {
			fatal(logger, err)
		}
		fmt.Printf("CAT-%d re-fit: logL=%.4f (Gamma search logL was %.4f)\n", *catCats, catLL, analysis.BestLogL)
	}

	if *draw {
		fmt.Println(analysis.Best.Ascii())
	}

	if *treesOut != "" {
		trees := []phylotree.NamedTree{{Name: "best", Tree: analysis.Best}}
		for _, r := range analysis.Results {
			if r.Err != nil {
				continue // quarantined jobs carry no tree
			}
			tr, err := phylotree.ParseNewick(r.Newick)
			if err != nil {
				fatal(logger, err)
			}
			trees = append(trees, phylotree.NamedTree{
				Name: fmt.Sprintf("%v_%d", r.Job.Kind, r.Job.Index),
				Tree: tr,
			})
		}
		tf, err := os.Create(*treesOut)
		if err != nil {
			fatal(logger, err)
		}
		if err := phylotree.WriteNexusTrees(tf, trees); err != nil {
			fatal(logger, err)
		}
		tf.Close()
		fmt.Printf("%d trees written to %s\n", len(trees), *treesOut)
	}

	newick := analysis.Best.Newick()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(newick+"\n"), 0o644); err != nil {
			fatal(logger, err)
		}
		fmt.Printf("tree written to %s\n", *out)
	} else {
		fmt.Println(newick)
	}
}

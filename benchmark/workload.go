package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/core"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
)

// kind selects the operation a workload times.
type kind int

const (
	campaign   kind = iota // core.Analyze: inferences + bootstraps through mw, support, consensus
	treeSearch             // core.InferOnce from a random starting tree
	fixedTree              // branch + alpha optimisation of a fixed topology
)

// Model and search settings every workload pins explicitly, so that a later
// change of the program's defaults shows in the numbers and not in the inputs.
const (
	startAlpha = 0.8
	gammaCats  = 4

	inferences = 2
	bootstraps = 6
)

// workload is one fixed-size set of inputs and the operation timed on them.
type workload struct {
	name string
	why  string
	kind kind
	// family names the input set; workloads of one family read byte-identical
	// files at the same seed.
	family  string
	params  seqsim.Params
	inputs  int // distinct alignments generated per run
	workers int // threads the operation may use
}

// workloads returns the catalogue at the given scale. "bench" is sized for a
// 20 s run on a 2-core host. Every operation of a run reads another
// alignment or starts from another tree, and the work of a search differs by
// a tenth between such inputs, so the spread between seeds shrinks only with
// the number of operations in a run: the search and campaign inputs are as
// small as they can be while a search still takes three to five rounds, which
// gives 45 and 24 operations per run. "smoke" is for go test.
func workloads(scale string) ([]workload, error) {
	camp := seqsim.Params42SC() // the paper's branch lengths and invariant share
	camp.Taxa, camp.Sites = 20, 500
	tree := seqsim.Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: startAlpha, InvariantFraction: 0.4}
	wide := seqsim.Params{Taxa: 24, Sites: 10000, MeanBranch: 0.1, Alpha: startAlpha, InvariantFraction: 0.1}
	nCamp, nTree, nWide := 12, 16, 3
	switch scale {
	case "bench":
	case "smoke":
		small := seqsim.Params{Taxa: 12, Sites: 200, MeanBranch: 0.05, Alpha: startAlpha, InvariantFraction: 0.4}
		camp, tree, wide = small, small, small
		wide.Sites = 600
		nCamp, nTree, nWide = 1, 2, 1
	default:
		return nil, fmt.Errorf("unknown scale %q (want bench or smoke)", scale)
	}
	return []workload{
		{
			name: "campaign20", kind: campaign, family: "campaign20", params: camp, inputs: nCamp, workers: 2,
			why: "the whole user path on 20x500 at the paper's divergence: mw on 2 workers, checkpoint, 8 parsimony starts, bootstraps, consensus; kernels L1-resident",
		},
		{
			name: "search20-serial", kind: treeSearch, family: "search20", params: tree, inputs: nTree, workers: 1,
			why: "one SPR search of 20x250 from a random tree (3-5 rounds, ~25 moves): search layer and per-prune vector caches do the work; mw idle",
		},
		{
			name: "search20-pool", kind: treeSearch, family: "search20", params: tree, inputs: nTree, workers: 2,
			why: "byte-identical inputs with 2 search workers: pool, shared vector cache and wavefront instead of the serial path",
		},
		{
			name: "wide24", kind: fixedTree, family: "wide24", params: wide, inputs: nWide, workers: 1,
			why: "fixed topology, 24x10000: kernels >90% of the work, vectors stream from beyond L2; SPR, memo, pool and mw do nothing",
		},
	}, nil
}

func findWorkload(scale, name string) (workload, error) {
	ws, err := workloads(scale)
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// searchOptions are the search settings of every workload.
func searchOptions(workers int) search.Options {
	return search.Options{Radius: 5, MaxRounds: 10, SmoothPasses: 4, Epsilon: 0.01, AlphaOpt: true, Workers: workers}
}

// mix derives an independent seed for (seed, stream, i) by splitmix64, so
// that inputs and operation seeds never share a random stream: a search
// seeded like its generator would start from the true tree.
func mix(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := uint64(seed)*0x9E3779B97F4A7C15 + h.Sum64() + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// opSeed is the seed of operation i: it picks the starting trees and the
// bootstrap resampling. Both search workloads draw from one stream so that
// operation i is the same search in each.
func (w workload) opSeed(seed int64, i int) int64 { return mix(seed, w.family+"/op", i) }

func phylipPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("in-%d.phy", i)) }
func startPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("in-%d.start.nwk", i))
}

// input is what set-up keeps of one generated alignment for checking the
// program's answers; the program itself sees only the files.
type input struct {
	pat *alignment.Patterns
	// refLogL is the log-likelihood of the simulation's true tree with its
	// branches smoothed and alpha fitted: the accuracy a search must reach.
	refLogL float64
}

// setup generates the workload's inputs from the seed into dir: PHYLIP
// bytes, the reference score where a search is checked against one, and the
// starting tree where it is an input.
func (w workload) setup(seed int64, dir string) ([]input, error) {
	// The phylogeny belongs to the workload like its size does: it is drawn
	// from a constant, and the seed draws the sequences that evolve along it
	// (and, in the operations, the starting trees and the bootstrap
	// resamples). Drawing the tree from the seed too makes the tree length,
	// and with it the pattern count and every time, vary by 15% between runs.
	one := w.params
	one.Sites = 1
	_, truth, err := seqsim.Generate(one, seqsim.DefaultModel(), rand.New(rand.NewSource(mix(0, w.family+"/tree", 0))))
	if err != nil {
		return nil, err
	}
	ins := make([]input, w.inputs)
	for i := range ins {
		rng := rand.New(rand.NewSource(mix(seed, w.family+"/input", i)))
		aln, err := seqsim.Evolve(truth, seqsim.DefaultModel(), w.params, rng)
		if err != nil {
			return nil, err
		}
		f, err := os.Create(phylipPath(dir, i))
		if err != nil {
			return nil, err
		}
		if err := alignment.WritePhylip(f, aln); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		pat, err := loadPatterns(phylipPath(dir, i), nil)
		if err != nil {
			return nil, err
		}
		ins[i].pat = pat
		if w.kind == fixedTree {
			start, err := search.StartingTree(pat, "parsimony", rng)
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(startPath(dir, i), []byte(start.Newick()), 0o644); err != nil {
				return nil, err
			}
			continue
		}
		if ins[i].refLogL, err = referenceScore(pat, truth); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// loadPatterns reads and compresses a PHYLIP file, the first two steps of
// every operation.
func loadPatterns(path string, in *instruments) (*alignment.Patterns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	id := in.begin("alignment.parse")
	aln, err := alignment.ReadPhylip(f)
	in.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	id = in.begin("alignment.compress")
	pat := alignment.Compress(aln)
	in.end(id)
	return pat, nil
}

// referenceScore optimises branch lengths and alpha on the true topology.
func referenceScore(pat *alignment.Patterns, truth *phylotree.Tree) (float64, error) {
	tr := truth.Clone()
	if err := tr.AlignTaxa(pat.Names); err != nil {
		return 0, err
	}
	eng, err := newScalarEngine(pat, startAlpha)
	if err != nil {
		return 0, err
	}
	if _, err := search.SmoothBranches(eng, tr, 16, 1e-3); err != nil {
		return 0, err
	}
	if _, _, err := search.OptimizeAlpha(eng, tr, 0.02, 50, 1e-3); err != nil {
		return 0, err
	}
	return search.SmoothBranches(eng, tr, 16, 1e-3)
}

// newScalarEngine builds the independent evaluator of set-up and checking:
// always the scalar reference backend, whatever the program's default is.
func newScalarEngine(pat *alignment.Patterns, alpha float64) (*likelihood.Engine, error) {
	mod, err := core.ModelFor(pat, alpha, gammaCats)
	if err != nil {
		return nil, err
	}
	return likelihood.NewEngine(pat, mod, likelihood.Config{Backend: "scalar"})
}

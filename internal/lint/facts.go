package lint

import (
	"bufio"
	"fmt"
	"go/types"
	"io"
	"sort"
	"strings"
)

// A FactSet is the cross-package side channel of the interprocedural
// analyzers: durable statements about package-level objects ("this function
// is nondeterministic because ..."), keyed by the object's fully qualified
// name and a short fact name, carrying a human-readable value (for the
// taint analyzers, the witness chain shown in diagnostics).
//
// Facts produced while analyzing a dependency are serialized into the
// package's .vetx file when raxmlvet runs under `go vet -vettool` (the go
// command threads the files through vetConfig.PackageVetx), and are kept
// in memory when linttest.RunPkgs analyzes a multi-package golden case in
// dependency order. Both paths funnel into Package.Imported, so analyzers
// never care which one ran them.
type FactSet struct {
	m map[factKey]string
}

type factKey struct {
	object string // qualified object key, see ObjectKey
	name   string // fact name, e.g. "nondet"
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[factKey]string)}
}

// Add records fact name with the given value on the object key. A repeated
// Add for the same (object, name) keeps the first value: fact computation
// is a fixed point and the first witness is as good as any later one.
func (fs *FactSet) Add(object, name, value string) {
	k := factKey{object, name}
	if _, ok := fs.m[k]; !ok {
		fs.m[k] = value
	}
}

// Get returns the value of fact name on the object key.
func (fs *FactSet) Get(object, name string) (string, bool) {
	v, ok := fs.m[factKey{object, name}]
	return v, ok
}

// Merge copies every fact of other into fs (first value wins, as in Add).
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for _, k := range other.sortedKeys() {
		fs.Add(k.object, k.name, other.m[k])
	}
}

func (fs *FactSet) sortedKeys() []factKey {
	keys := make([]factKey, 0, len(fs.m))
	for k := range fs.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].object != keys[j].object {
			return keys[i].object < keys[j].object
		}
		return keys[i].name < keys[j].name
	})
	return keys
}

// factsHeader versions the serialized form; a vetx file written by an
// older raxmlvet (including the pre-fact "no facts" placeholder) is
// rejected by DecodeFacts and treated as empty by ReadFacts callers.
const factsHeader = "raxmlvet-facts/1"

// Encode serializes the set in a stable, sorted, line-oriented form:
//
//	raxmlvet-facts/1
//	<object>\t<name>\t<value>
//
// Values are newline-escaped so the format stays one fact per line.
func (fs *FactSet) Encode() []byte {
	var b strings.Builder
	b.WriteString(factsHeader)
	b.WriteByte('\n')
	for _, k := range fs.sortedKeys() {
		v := strings.NewReplacer("\n", `\n`, "\t", `\t`).Replace(fs.m[k])
		fmt.Fprintf(&b, "%s\t%s\t%s\n", k.object, k.name, v)
	}
	return []byte(b.String())
}

// DecodeFacts parses the Encode form. Unknown headers are an error so the
// caller can fall back to an empty set explicitly.
func DecodeFacts(r io.Reader) (*FactSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("facts: empty input")
	}
	if sc.Text() != factsHeader {
		return nil, fmt.Errorf("facts: unrecognized header %q", sc.Text())
	}
	fs := NewFactSet()
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("facts: malformed line %q", line)
		}
		v := strings.NewReplacer(`\n`, "\n", `\t`, "\t").Replace(parts[2])
		fs.Add(parts[0], parts[1], v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("facts: %v", err)
	}
	return fs, nil
}

// ObjectKey returns the stable cross-package key of a function or method:
// "path.Func" or "(path.Recv).Method" / "(*path.Recv).Method" — the
// types.Func.FullName form with any " [test-variant]" suffix stripped from
// the package path, so a fact exported while analyzing the test variant of
// a package matches the plain import seen by its dependents.
func ObjectKey(fn *types.Func) string {
	name := fn.FullName()
	if i := strings.Index(name, " ["); i >= 0 {
		// The bracketed vet/go-list test-variant suffix embeds a space;
		// splice it out wherever it appears (plain funcs: in the package
		// qualifier; methods: inside the parenthesized receiver).
		if j := strings.Index(name[i:], "]"); j >= 0 {
			name = name[:i] + name[i+j+1:]
		}
	}
	return name
}

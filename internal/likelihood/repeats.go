package likelihood

import "raxmlcell/internal/phylotree"

// Site repeats (Kobert, Stamatakis & Flouri, Syst. Biol. 66(2), 2017; the
// scheme RAxML-NG and libpll run): two patterns whose columns agree on every
// taxon of a subtree have the same partial vector at the subtree's root, so
// the store keeps one row per repeat class of a directed record and a class
// map from pattern to row. A record's classes are the distinct pairs
// of its two children's classes, numbered in first-occurrence order; a tip's
// classes are its codes. They depend on the topology behind the record
// only, so they are kept per directed ring record until the tree's topology
// hook reaches it: branch lengths and models change vectors, never classes.
//
// A row is computed by the same operations on the same inputs as each of its
// patterns was, so vectors, scale counts and every reduction keep their bits;
// only the rows a combine runs (and with them the flops) fall.

// maxRepeatPatterns is the most patterns an engine keeps repeat classes
// for: a class map holds 16-bit rows. A wider alignment keeps one row per
// pattern.
const maxRepeatPatterns = 1 << 16

// vec is a directed vector as the kernels read it: lv and sc hold one row
// per repeat class, rows of them, and cls maps each pattern to its row (nil:
// one row per pattern, rows unset). A tip's vec is the zero value.
type vec struct {
	lv   []float64
	sc   []int32
	cls  []uint16
	rows int
}

// row is the row of pattern pat.
func (v *vec) row(pat int) int {
	if v.cls == nil {
		return pat
	}
	return int(v.cls[pat])
}

// classes returns inner record r's entry when it holds r's repeat classes,
// or nil when it does not (or the engine keeps one row per pattern).
func (e *Engine) classes(r *phylotree.Node) *entry {
	if s := e.entryOf(r); s != nil && s.cls != nil {
		return s
	}
	return nil
}

// classTable is the class pass's scratch: a dense table indexed by the pair
// of child classes when their product fits, an open-addressing hash
// otherwise. An entry is gen<<48 | row<<32 | key — the hash compares the
// key, the dense table has it in the index — and is live only under the
// generation of the running pass, so nothing is cleared between passes.
type classTable struct {
	gen   uint64
	dense []uint64
	hash  []uint64
	shift uint
	first []int32 // row → the first pattern of its class, for the combine
}

// fit sizes the table for npat patterns; it allocates once per engine.
func (t *classTable) fit(npat int) {
	if t.dense != nil {
		return
	}
	t.dense = make([]uint64, max(2*npat, 1<<14))
	n := 1
	for n < 2*npat {
		n <<= 1
	}
	t.hash = make([]uint64, n)
	t.first = make([]int32, npat)
	t.shift = 64
	for m := n; m > 1; m >>= 1 {
		t.shift--
	}
}

// next opens a new generation, clearing the tables when it wraps.
func (t *classTable) next() uint64 {
	t.gen = (t.gen + 1) & 0xffff
	if t.gen == 0 {
		clear(t.dense)
		clear(t.hash)
		t.gen = 1
	}
	return t.gen
}

// probe returns the hash entry for key: its own, or the empty one it claims.
func (t *classTable) probe(key, gen uint64) *uint64 {
	mask := uint64(len(t.hash) - 1)
	for h := (key * 0x9E3779B97F4A7C15) >> t.shift; ; h = (h + 1) & mask {
		if v := t.hash[h]; v>>48 != gen || uint32(v) == uint32(key) {
			return &t.hash[h]
		}
	}
}

// classPass numbers the repeat classes of inner record d.rec from its
// children's, q and r — class maps for inner children, codes for tips — in
// one serial pass over the patterns, and returns each class's first pattern.
// A child with one class per pattern gives d.rec one too: the identity,
// which needs no pass and whose map is never read (entry.vec), and whose
// first patterns are nil, one row per pattern.
func (e *Engine) classPass(d *entry, q, r *phylotree.Node) []int32 {
	e.Meter.ClassPasses++
	var qData, rData []byte
	qc, rc := e.classes(q), e.classes(r)
	if qc != nil && qc.rows == e.npat || rc != nil && rc.rows == e.npat {
		d.rows = e.npat
		return nil
	}
	nq, nr := 16, 16
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
	} else {
		nq = qc.rows
	}
	if r.IsTip() {
		rData = e.Pat.Data[r.Index]
	} else {
		nr = rc.rows
	}
	t := &e.scr.classes
	t.fit(e.npat)
	gen := t.next()
	dense := nq*nr <= len(t.dense)
	rows := uint64(0)
	for pat := 0; pat < e.npat; pat++ {
		var key uint64
		if qc != nil {
			key = uint64(qc.cls[pat])
		} else {
			key = uint64(qData[pat] & 0x0f)
		}
		if rc != nil {
			key = key*uint64(nr) + uint64(rc.cls[pat])
		} else {
			key = key*uint64(nr) + uint64(rData[pat]&0x0f)
		}
		var ent *uint64
		if dense {
			ent = &t.dense[key]
		} else {
			ent = t.probe(key, gen)
		}
		if *ent>>48 == gen {
			d.cls[pat] = uint16(*ent >> 32)
			continue
		}
		*ent = gen<<48 | rows<<32 | key
		d.cls[pat] = uint16(rows)
		t.first[rows] = int32(pat)
		rows++
	}
	d.rows = int(rows)
	return t.first[:rows]
}

// firstPatterns returns the first pattern of each of s's classes, in row
// order: classes are numbered in first-occurrence order, so one scan of the
// map finds them. One class per pattern returns nil, one row per pattern.
func (e *Engine) firstPatterns(s *entry) []int32 {
	if s.rows == e.npat {
		return nil
	}
	t := &e.scr.classes
	t.fit(e.npat)
	first := t.first[:s.rows]
	next := 0
	for pat, r := range s.cls {
		if int(r) == next {
			first[next] = int32(pat)
			if next++; next == s.rows {
				break
			}
		}
	}
	return first
}

// classTableRatio is the rule for a class table: an inner child with at most
// 1/classTableRatio as many repeat classes as the rows an operation runs
// over is projected once per class, into a table laid out like a tip's
// ([class][cat][state]), which the operation reads as it reads a tip's. An
// entry is the row projection's own expression on the same inputs, so the
// bits hold; the meter still counts a projection per row, the product it
// equals. The sweep that set the ratio is in DESIGN.md (rung 12).
const classTableRatio = 2

// classTab is a class table to build: the rows of inner vector src
// projected through the per-category matrices p into dst.
type classTab struct {
	p, src, dst []float64
	rows        int
}

// classTable files a class table of inner vector v through matrices p for
// an operation over rows rows, if the rule gives v one and the backend reads
// them, and returns its storage (nil otherwise); projectTables builds what
// was filed. The tables live in the sum table's storage, which holds nothing
// outside a Newton solve: by the rule an operation's tables have at most as
// many rows as the operation, so they fit.
func (e *Engine) classTable(v *vec, p []float64, rows int) []float64 {
	if v.cls == nil || classTableRatio*v.rows > rows || !e.backend.readsClassTables() {
		return nil
	}
	off := 0
	for _, t := range e.scr.tabs {
		off += t.rows
	}
	stride := e.ncat * ns
	t := classTab{p: p, src: v.lv, dst: e.scr.sumTab[off*stride : (off+v.rows)*stride], rows: v.rows}
	e.scr.tabs = append(e.scr.tabs, t)
	e.scr.tabled++
	return t.dst
}

// projectTables builds the class tables filed since it last ran, in one
// pass of the executor.
func (e *Engine) projectTables() {
	if len(e.scr.tabs) > 0 {
		e.runPass(passClassTables)
		e.scr.tabs = e.scr.tabs[:0]
	}
}

package phylotree

import (
	"fmt"
	"strconv"
	"strings"
)

// Newick renders the tree as an unrooted Newick string with branch lengths,
// using the internal node adjacent to tip 0 as the trifurcating print root.
func (t *Tree) Newick() string {
	var b strings.Builder
	root := t.Tips[0].Back // internal ring record
	b.WriteByte('(')
	first := true
	for _, r := range root.Ring() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		writeSubtree(&b, r.Back, r.Z)
	}
	b.WriteString(");")
	// An exact-size copy: the builder's buffer can hold twice the bytes, and
	// callers keep these strings (a campaign keeps one per job result).
	return strings.Clone(b.String())
}

func writeSubtree(b *strings.Builder, nd *Node, z float64) {
	if nd.IsTip() {
		b.WriteString(quoteName(nd.Name))
	} else {
		b.WriteByte('(')
		first := true
		for _, r := range nd.Ring() {
			if r == nd {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			writeSubtree(b, r.Back, r.Z)
		}
		b.WriteByte(')')
	}
	fmt.Fprintf(b, ":%.6f", z)
}

// quoteName quotes a label that holds a byte ending an unquoted one (see
// parseLabel and skipSpace) or a quote or bracket.
func quoteName(name string) string {
	if strings.ContainsAny(name, " ():,;'\t\n\r[]") {
		return "'" + strings.ReplaceAll(name, "'", "''") + "'"
	}
	return name
}

// --- parsing ---

type newickAST struct {
	name     string
	length   float64
	hasLen   bool
	children []*newickAST
}

type newickParser struct {
	s   string
	pos int
}

// ParseNewick parses a Newick tree. Internal nodes must be binary except the
// outermost, which may be bi- or trifurcating; a bifurcating root is
// unrooted by fusing its two child branches. Taxon order is order of first
// appearance in the string.
func ParseNewick(s string) (*Tree, error) {
	p := &newickParser{s: s}
	p.skipSpace()
	ast, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("newick: trailing garbage at offset %d", p.pos)
	}

	var taxa []string
	var collect func(n *newickAST) error
	collect = func(n *newickAST) error {
		if len(n.children) == 0 {
			if n.name == "" {
				return fmt.Errorf("newick: unnamed tip")
			}
			taxa = append(taxa, n.name)
			return nil
		}
		for _, c := range n.children {
			if err := collect(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := collect(ast); err != nil {
		return nil, err
	}

	t, err := NewTree(taxa)
	if err != nil {
		return nil, err
	}
	tipIdx := make(map[string]int, len(taxa))
	for i, name := range taxa {
		tipIdx[name] = i
	}

	// build returns a directed record ready to be connected upward.
	var build func(n *newickAST) (*Node, error)
	build = func(n *newickAST) (*Node, error) {
		if len(n.children) == 0 {
			return t.Tips[tipIdx[n.name]], nil
		}
		if len(n.children) != 2 {
			return nil, fmt.Errorf("newick: internal node with %d children (only binary supported)", len(n.children))
		}
		ring := t.NewInternalRing().Ring()
		for i, c := range n.children {
			sub, err := build(c)
			if err != nil {
				return nil, err
			}
			Connect(ring[i+1], sub, lenOrDefault(c))
		}
		return ring[0], nil
	}

	switch len(ast.children) {
	case 3:
		ring := t.NewInternalRing().Ring()
		for i, c := range ast.children {
			sub, err := build(c)
			if err != nil {
				return nil, err
			}
			Connect(ring[i], sub, lenOrDefault(c))
		}
	case 2:
		a, err := build(ast.children[0])
		if err != nil {
			return nil, err
		}
		b, err := build(ast.children[1])
		if err != nil {
			return nil, err
		}
		Connect(a, b, lenOrDefault(ast.children[0])+lenOrDefault(ast.children[1]))
	default:
		return nil, fmt.Errorf("newick: root with %d children (want 2 or 3)", len(ast.children))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func lenOrDefault(n *newickAST) float64 {
	if n.hasLen {
		return n.length
	}
	return DefaultBranchLength
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *newickParser) parseNode() (*newickAST, error) {
	p.skipSpace()
	n := &newickAST{}
	if p.pos < len(p.s) && p.s[p.pos] == '(' {
		p.pos++
		for {
			child, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
			p.skipSpace()
			if p.pos >= len(p.s) {
				return nil, fmt.Errorf("newick: unexpected end inside group")
			}
			if p.s[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.s[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("newick: unexpected %q at offset %d", p.s[p.pos], p.pos)
		}
	}
	// Optional label.
	name, err := p.parseLabel()
	if err != nil {
		return nil, err
	}
	n.name = name
	// Optional branch length.
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ':' {
		p.pos++
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		n.length = v
		n.hasLen = true
	}
	return n, nil
}

func (p *newickParser) parseLabel() (string, error) {
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == '\'' {
		p.pos++
		var b strings.Builder
		for p.pos < len(p.s) {
			c := p.s[p.pos]
			if c == '\'' {
				if p.pos+1 < len(p.s) && p.s[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return b.String(), nil
			}
			b.WriteByte(c)
			p.pos++
		}
		return "", fmt.Errorf("newick: unterminated quoted label")
	}
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == ':' || c == ',' || c == ')' || c == '(' || c == ';' ||
			c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		p.pos++
	}
	return p.s[start:p.pos], nil
}

func (p *newickParser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("newick: expected number at offset %d", p.pos)
	}
	v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("newick: bad number %q: %w", p.s[start:p.pos], err)
	}
	return v, nil
}

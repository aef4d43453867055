package main

import (
	"fmt"
	"sort"
	"strings"

	"genmapper/internal/eav"
)

// oracle is an independent model of what GenMapper must hold after
// importing a list of datasets, built with plain maps from the generator's
// records and the paper's rules alone — no code of the program under test
// runs in it. It answers the questions the workloads check: which objects a
// source has, which associations a mapping holds, what a composed mapping
// and an annotation view contain, and the deployment totals.
type oracle struct {
	sources  map[string]bool
	objects  map[string]map[string]bool   // source -> accessions
	text     map[string]map[string]string // source -> accession -> first NAME text
	rels     map[relKey]pairSet           // cross-source Fact / Similarity mappings
	isA      map[string]pairSet           // source -> (child, parent)
	contains map[string]pairSet           // source -> (partition, member)
	adj      map[string]map[string]bool   // undirected source graph
}

type relKey struct {
	from, to string
	sim      bool // Similarity (evidence-carrying) rather than Fact
}

type pair struct{ a, b string }

type pairSet map[pair]bool

func newOracle() *oracle {
	return &oracle{
		sources:  map[string]bool{},
		objects:  map[string]map[string]bool{},
		text:     map[string]map[string]string{},
		rels:     map[relKey]pairSet{},
		isA:      map[string]pairSet{},
		contains: map[string]pairSet{},
		adj:      map[string]map[string]bool{},
	}
}

func (o *oracle) object(src, acc string) {
	o.sources[src] = true
	m := o.objects[src]
	if m == nil {
		m = map[string]bool{}
		o.objects[src] = m
	}
	m[acc] = true
}

func addPair(m map[string]pairSet, key string, p pair) {
	s := m[key]
	if s == nil {
		s = pairSet{}
		m[key] = s
	}
	s[p] = true
}

// add folds one dataset in: every record's accession is an object of the
// dataset's source, NAME gives the object its text (the first one wins and
// later releases only fill text that is still empty), IS_A and CONTAINS
// link objects inside the source, and every other target names a source
// whose object the record references, under a Fact mapping without
// evidence and a Similarity mapping with it.
func (o *oracle) add(d *eav.Dataset) {
	src := d.Source.Name
	o.sources[src] = true
	texts := o.text[src]
	if texts == nil {
		texts = map[string]string{}
		o.text[src] = texts
	}
	for _, r := range d.Records {
		o.object(src, r.Accession)
		switch r.Target {
		case eav.TargetName:
			if texts[r.Accession] == "" {
				texts[r.Accession] = r.Text
			}
		case eav.TargetNumber:
		case eav.TargetIsA:
			o.object(src, r.TargetAccession)
			addPair(o.isA, src, pair{r.Accession, r.TargetAccession})
		case eav.TargetContains:
			o.object(src, r.TargetAccession)
			addPair(o.contains, src, pair{r.Accession, r.TargetAccession})
		default:
			o.object(r.Target, r.TargetAccession)
			k := relKey{from: src, to: r.Target, sim: r.Evidence != 0}
			s := o.rels[k]
			if s == nil {
				s = pairSet{}
				o.rels[k] = s
			}
			s[pair{r.Accession, r.TargetAccession}] = true
			if src != r.Target {
				o.link(src, r.Target)
			}
		}
	}
}

func (o *oracle) link(a, b string) {
	for _, e := range [][2]string{{a, b}, {b, a}} {
		m := o.adj[e[0]]
		if m == nil {
			m = map[string]bool{}
			o.adj[e[0]] = m
		}
		m[e[1]] = true
	}
}

// connected reports whether a mapping path leads from a to b.
func (o *oracle) connected(a, b string) bool {
	seen := map[string]bool{a: true}
	queue := []string{a}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == b {
			return true
		}
		for n := range o.adj[s] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return false
}

// path returns a shortest mapping path from a to b (nil when none),
// trying neighbours in name order.
func (o *oracle) path(a, b string) []string {
	prev := map[string]string{a: ""}
	queue := []string{a}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == b {
			var p []string
			for x := b; x != ""; x = prev[x] {
				p = append([]string{x}, p...)
			}
			return p
		}
		next := make([]string, 0, len(o.adj[s]))
		for n := range o.adj[s] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if _, seen := prev[n]; !seen {
				prev[n] = s
				queue = append(queue, n)
			}
		}
	}
	return nil
}

// hasEdge reports whether a direct mapping links a and b.
func (o *oracle) hasEdge(a, b string) bool { return o.adj[a][b] }

// edge returns the associations of the mapping between s and t as an
// adjacency from s's accessions to t's. The paper keeps one mapping per
// source pair and relationship type; where several exist, curated facts
// win over computed similarity, and a mapping stored from s to t wins over
// the same type stored from t to s.
func (o *oracle) edge(s, t string) (map[string][]string, error) {
	for _, sim := range []bool{false, true} {
		if ps, ok := o.rels[relKey{s, t, sim}]; ok {
			return adjacency(ps, false), nil
		}
		if ps, ok := o.rels[relKey{t, s, sim}]; ok {
			return adjacency(ps, true), nil
		}
	}
	return nil, fmt.Errorf("oracle: no mapping between %s and %s", s, t)
}

func adjacency(ps pairSet, reversed bool) map[string][]string {
	out := map[string][]string{}
	for p := range ps {
		a, b := p.a, p.b
		if reversed {
			a, b = b, a
		}
		out[a] = append(out[a], b)
	}
	return out
}

// compose follows a source path and returns, per accession of path[0],
// the set of accessions of the last source it reaches.
func (o *oracle) compose(path []string) (map[string]map[string]bool, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("oracle: path %v is shorter than one mapping", path)
	}
	first, err := o.edge(path[0], path[1])
	if err != nil {
		return nil, err
	}
	cur := map[string]map[string]bool{}
	for a, bs := range first {
		set := map[string]bool{}
		for _, b := range bs {
			set[b] = true
		}
		cur[a] = set
	}
	for i := 1; i+1 < len(path); i++ {
		next, err := o.edge(path[i], path[i+1])
		if err != nil {
			return nil, err
		}
		out := map[string]map[string]bool{}
		for a, mids := range cur {
			set := map[string]bool{}
			for m := range mids {
				for _, c := range next[m] {
					set[c] = true
				}
			}
			if len(set) > 0 {
				out[a] = set
			}
		}
		cur = out
	}
	return cur, nil
}

// viewTarget is one annotation column of an expected view: the mapping
// from the view source to the target (already composed along the path the
// query takes) and whether the target is negated.
type viewTarget struct {
	mapping map[string]map[string]bool
	negate  bool
}

// viewRows computes the rows of an annotation view by the rules of the
// paper's GenerateView (Figure 5), with "" for NULL:
//   - OR: every source object, crossed with each target's associated
//     objects, NULL where it has none;
//   - AND: source objects without an associated object of some target are
//     dropped;
//   - a negated target selects the source objects without any associated
//     target object; its column is NULL, and under AND the objects that do
//     have one are dropped.
//
// Rows come back sorted, so views compare as multisets.
func viewRows(sources []string, targets []viewTarget, and bool) [][]string {
	var rows [][]string
	for _, s := range sources {
		partial := [][]string{{s}}
		keep := true
		for _, t := range targets {
			var cells []string
			if t.negate {
				if len(t.mapping[s]) > 0 && and {
					keep = false
					break
				}
				cells = []string{""}
			} else {
				for c := range t.mapping[s] {
					cells = append(cells, c)
				}
				if len(cells) == 0 {
					if and {
						keep = false
						break
					}
					cells = []string{""}
				}
			}
			var next [][]string
			for _, p := range partial {
				for _, c := range cells {
					row := append(append([]string(nil), p...), c)
					next = append(next, row)
				}
			}
			partial = next
		}
		if keep {
			rows = append(rows, partial...)
		}
	}
	sortRows(rows)
	return rows
}

// viewRowCount counts the rows viewRows would return without building them.
func viewRowCount(sources []string, targets []viewTarget, and bool) int {
	total := 0
	for _, s := range sources {
		n := 1
		for _, t := range targets {
			k := len(t.mapping[s])
			switch {
			case t.negate:
				if k > 0 && and {
					n = 0
				}
			case k == 0:
				if and {
					n = 0
				}
			default:
				n *= k
			}
		}
		total += n
	}
	return total
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i], "\x00") < strings.Join(rows[j], "\x00")
	})
}

// accessions returns a source's objects, sorted.
func (o *oracle) accessions(src string) []string {
	out := make([]string, 0, len(o.objects[src]))
	for a := range o.objects[src] {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// totals are the deployment figures GenMapper reports: sources, objects,
// mappings and associations, with associations split by relationship type.
type totals struct {
	sources, objects, mappings, assocs int64
	byType                             map[string]int64
}

// totals counts what the repository must hold. Subsumed is derived from
// IS_A: every term subsumes all of its transitive descendants (not itself),
// materialized as one mapping per source with IS_A structure.
func (o *oracle) totals() totals {
	t := totals{byType: map[string]int64{}}
	t.sources = int64(len(o.sources))
	for _, m := range o.objects {
		t.objects += int64(len(m))
	}
	for k, ps := range o.rels {
		typ := "fact"
		if k.sim {
			typ = "similarity"
		}
		t.byType[typ] += int64(len(ps))
		t.mappings++
	}
	for _, ps := range o.isA {
		t.byType["is_a"] += int64(len(ps))
		t.mappings++
		if n := subsumedCount(ps); n > 0 {
			t.byType["subsumed"] += int64(n)
			t.mappings++
		}
	}
	for _, ps := range o.contains {
		t.byType["contains"] += int64(len(ps))
		t.mappings++
	}
	for _, n := range t.byType {
		t.assocs += n
	}
	return t
}

// String renders totals the way the program's stats line does.
func (t totals) String() string {
	types := make([]string, 0, len(t.byType))
	for k := range t.byType {
		types = append(types, k)
	}
	sort.Strings(types)
	var sb strings.Builder
	fmt.Fprintf(&sb, "sources=%d objects=%d mappings=%d associations=%d", t.sources, t.objects, t.mappings, t.assocs)
	for _, k := range types {
		fmt.Fprintf(&sb, " %s=%d", k, t.byType[k])
	}
	return sb.String()
}

// subsumedCount counts (ancestor, descendant) pairs of the IS_A graph.
func subsumedCount(isA pairSet) int {
	parents := map[string][]string{}
	nodes := map[string]bool{}
	for p := range isA {
		parents[p.a] = append(parents[p.a], p.b)
		nodes[p.a], nodes[p.b] = true, true
	}
	total := 0
	for n := range nodes {
		seen := map[string]bool{}
		stack := append([]string(nil), parents[n]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, parents[x]...)
		}
		total += len(seen)
	}
	return total
}

// ancestors returns, per term of a source with IS_A structure, the term
// itself and every term above it.
func (o *oracle) ancestors(src string) map[string][]string {
	parents := map[string][]string{}
	for p := range o.isA[src] {
		parents[p.a] = append(parents[p.a], p.b)
	}
	out := map[string][]string{}
	for term := range o.objects[src] {
		seen := map[string]bool{}
		stack := []string{term}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, parents[x]...)
		}
		list := make([]string, 0, len(seen))
		for x := range seen {
			list = append(list, x)
		}
		out[term] = list
	}
	return out
}

// newAssocs counts the associations that after holds and before does not,
// across Fact, Similarity, IS_A and CONTAINS mappings: what importing the
// datasets that turned before into after must add. Subsumed is re-derived,
// not imported, and is left out.
func newAssocs(before, after *oracle) int {
	count := func(before, after map[string]pairSet) int {
		n := 0
		for k, ps := range after {
			n += len(ps) - len(before[k])
		}
		return n
	}
	n := count(before.isA, after.isA) + count(before.contains, after.contains)
	for k, ps := range after.rels {
		n += len(ps) - len(before.rels[k])
	}
	return n
}

// clone returns a deep copy of o.
func (o *oracle) clone() *oracle {
	c := newOracle()
	for k := range o.sources {
		c.sources[k] = true
	}
	for src, m := range o.objects {
		cm := make(map[string]bool, len(m))
		for a := range m {
			cm[a] = true
		}
		c.objects[src] = cm
	}
	for src, m := range o.text {
		cm := make(map[string]string, len(m))
		for a, t := range m {
			cm[a] = t
		}
		c.text[src] = cm
	}
	copySets := func(dst, src map[string]pairSet) {
		for k, ps := range src {
			cp := make(pairSet, len(ps))
			for p := range ps {
				cp[p] = true
			}
			dst[k] = cp
		}
	}
	copySets(c.isA, o.isA)
	copySets(c.contains, o.contains)
	for k, ps := range o.rels {
		cp := make(pairSet, len(ps))
		for p := range ps {
			cp[p] = true
		}
		c.rels[k] = cp
	}
	for a, m := range o.adj {
		for b := range m {
			c.link(a, b)
		}
	}
	return c
}

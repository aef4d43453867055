package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"genmapper"
	"genmapper/internal/gam"
	"genmapper/internal/ops"
	"genmapper/internal/view"
)

// Gene-list sources and annotation targets of the Figure 6 workload.
var (
	listSources = []string{"LocusLink", "Unigene"}
	chipPrefix  = "NetAffx-"
	listTargets = []string{"Hugo", "GO", "Location", "OMIM", "Enzyme", "RefSeq"}
	viaHubs     = []string{"LocusLink", "Unigene", "RefSeq"}
)

// sessionObjects is how many GET /object requests follow each query.
const sessionObjects = 2

// target is one annotation column of a query.
type target struct {
	name   string
	negate bool
	via    []string // explicit mapping path from the query source, or nil
}

// listQuery is one Figure 6 query over a gene list.
type listQuery struct {
	source     string
	accessions []string
	targets    []target
	and        bool
}

func (q listQuery) mode() string {
	if q.and {
		return "AND"
	}
	return "OR"
}

// form renders the query as the Figure 6 form fields.
func (q listQuery) form() url.Values {
	var specs []string
	for _, t := range q.targets {
		specs = append(specs, t.spec())
	}
	return url.Values{
		"source":     {q.source},
		"mode":       {q.mode()},
		"accessions": {strings.Join(q.accessions, "\n")},
		"targets":    {strings.Join(specs, "\n")},
	}
}

// spec renders a target in the query form's syntax.
func (t target) spec() string {
	s := t.name
	if t.negate {
		s = "!" + s
	}
	if len(t.via) > 0 {
		s += " via " + strings.Join(t.via, ">")
	}
	return s
}

// facade renders the query as the facade's Query, the form the HTTP
// handler builds from the same fields.
func (q listQuery) facade() genmapper.Query {
	fq := genmapper.Query{Source: q.source, Accessions: q.accessions, Mode: q.mode()}
	for _, t := range q.targets {
		fq.Targets = append(fq.Targets, genmapper.Target{Source: t.name, Negate: t.negate, Via: t.via})
	}
	return fq
}

func (q listQuery) columns() []string {
	cols := []string{q.source}
	for _, t := range q.targets {
		cols = append(cols, t.name)
	}
	return cols
}

// geneList draws n distinct accessions of src with a Zipf skew: a few
// genes are in many lists, most in few.
func geneList(rng *rand.Rand, all []string, n int) []string {
	if n > len(all) {
		n = len(all)
	}
	z := rand.NewZipf(rng, 1.1, 4, uint64(len(all)-1))
	perm := rng.Perm(len(all)) // which genes are the popular ones
	seen := map[int]bool{}
	var out []string
	for len(out) < n {
		i := perm[int(z.Uint64())]
		if len(seen) > len(all)/2 { // long lists on small sources: fall back to uniform
			i = rng.Intn(len(all))
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, all[i])
		}
	}
	return out
}

// listSize draws a gene-list size from 10 to 200, log-uniformly.
func listSize(rng *rand.Rand) int {
	return int(math.Round(10 * math.Pow(20, rng.Float64())))
}

// newSession draws one query of the gene_lists workload from rng.
func newSession(rng *rand.Rand, o *oracle, chips []string) listQuery {
	var src string
	switch r := rng.Intn(10); {
	case r < 4:
		src = listSources[0]
	case r < 7:
		src = listSources[1]
	default:
		src = chips[rng.Intn(len(chips))]
	}
	q := listQuery{source: src, and: rng.Intn(2) == 1}
	q.accessions = geneList(rng, o.accessions(src), listSize(rng))
	var cands []string
	for _, t := range listTargets {
		if t != src && o.connected(src, t) {
			cands = append(cands, t)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	k := 1 + rng.Intn(4)
	if k > len(cands) {
		k = len(cands)
	}
	for _, name := range cands[:k] {
		q.targets = append(q.targets, target{name: name})
	}
	if rng.Intn(10) == 0 {
		q.targets[rng.Intn(k)].negate = true
	}
	if rng.Intn(10) == 0 {
		t := &q.targets[rng.Intn(k)]
		for _, hub := range viaHubs {
			if hub != src && hub != t.name && o.hasEdge(src, hub) && o.hasEdge(hub, t.name) {
				t.via = []string{src, hub, t.name}
				break
			}
		}
	}
	return q
}

// chipSources lists the NetAffx chips present in the model.
func chipSources(o *oracle) []string {
	var out []string
	for s := range o.sources {
		if strings.HasPrefix(s, chipPrefix) && len(o.objects[s]) > 0 {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// expectation derives expected views from the model, composing along the
// path the program reports for each target (or the explicit via path).
// Composed mappings are memoized per path.
type expectation struct {
	o     *oracle
	sys   *genmapper.System
	paths map[string]map[string]map[string]bool
}

func newExpectation(o *oracle, sys *genmapper.System) *expectation {
	return &expectation{o: o, sys: sys, paths: map[string]map[string]map[string]bool{}}
}

func (e *expectation) mapping(src string, t target) (map[string]map[string]bool, error) {
	path := t.via
	if len(path) == 0 {
		p, err := e.sys.FindPath(src, t.name)
		if err != nil {
			return nil, err
		}
		path = p
	}
	key := strings.Join(path, ">")
	if m, ok := e.paths[key]; ok {
		return m, nil
	}
	m, err := e.o.compose(path)
	if err != nil {
		return nil, err
	}
	e.paths[key] = m
	return m, nil
}

func (e *expectation) targets(src string, ts []target) ([]viewTarget, error) {
	var out []viewTarget
	for _, t := range ts {
		m, err := e.mapping(src, t)
		if err != nil {
			return nil, err
		}
		out = append(out, viewTarget{mapping: m, negate: t.negate})
	}
	return out, nil
}

// rows returns the expected rows of a gene-list query.
func (e *expectation) rows(q listQuery) ([][]string, error) {
	vts, err := e.targets(q.source, q.targets)
	if err != nil {
		return nil, err
	}
	return viewRows(q.accessions, vts, q.and), nil
}

// objectReply is the JSON of GET /object.
type objectReply struct {
	Source    string `json:"source"`
	Accession string `json:"accession"`
	Text      string `json:"text"`
}

// geneLists runs the Figure 6 workload: one closed-loop client posting
// gene-list queries and drilling into two objects of each list.
func geneLists(b *bench) error {
	cfg := b.cfg
	ds, err := datasets(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	o := oracleOf(ds)
	wantStats := o.totals().String()
	rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(cfg.part)))
	chips := chipSources(o)

	var sys *genmapper.System
	var c *client
	var exp *expectation
	// One session: the query page, then two objects of the list. Each
	// request is one operation; latencies are client side, to the last
	// byte. replay, when non-nil, repeats the layer calls of the query.
	var queryLat, allLat []float64
	var d *delta // counter movement around requests, traced runs only
	var replay func(q listQuery, req, qspan int64)
	session := func() {
		q := newSession(rng, o, chips)
		want, err := exp.rows(q)
		if err != nil {
			b.mismatch("expected view of %v: %v", q.form(), err)
			return
		}
		req := int64(len(allLat) + 1)
		var page []byte
		var lat time.Duration
		qspan, err := b.request(sys, d, "server.query", req, func() error {
			var err error
			page, lat, err = c.post("/query", q.form())
			return err
		})
		if err != nil {
			b.logf("query failed: %v", err)
		} else {
			queryLat = append(queryLat, lat.Seconds())
			allLat = append(allLat, lat.Seconds())
			stats, got, err := parsePage(page)
			switch {
			case err != nil:
				b.mismatch("query page: %v", err)
			case stats != wantStats:
				b.mismatch("stats line %q, want %q", stats, wantStats)
			default:
				if err := checkRows(got, q.columns(), want); err != nil {
					b.mismatch("query %s: %v", q.form().Encode(), err)
				}
			}
			if replay != nil {
				replay(q, req, qspan)
			}
		}
		for i := 0; i < sessionObjects; i++ {
			acc := q.accessions[rng.Intn(len(q.accessions))]
			var body []byte
			_, err := b.request(sys, d, "server.object", req, func() error {
				var err error
				body, lat, err = c.get("/object", url.Values{"source": {q.source}, "accession": {acc}})
				return err
			})
			if err != nil {
				b.logf("object failed: %v", err)
				continue
			}
			allLat = append(allLat, lat.Seconds())
			var obj objectReply
			if err := json.Unmarshal(body, &obj); err != nil {
				b.mismatch("object %s/%s: %v", q.source, acc, err)
			} else if obj.Accession != acc || obj.Text != o.text[q.source][acc] {
				b.mismatch("object %s/%s: got (%q, %q), want (%q, %q)", q.source, acc, obj.Accession, obj.Text, acc, o.text[q.source][acc])
			}
		}
	}
	loop := func(seconds float64) {
		for start := time.Now(); time.Since(start).Seconds() < seconds; {
			session()
		}
	}
	stop := func() {
		c.close()
		sys.Close()
	}
	// start builds the system, serves it and warms it up with its first
	// sessions, uncounted: they fill the executor and statement caches.
	start := func() (secs, heap float64, err error) {
		s, secs, heap, err := timedBuild(inMemory(ds))
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		sys, c, exp = s, serve(s), newExpectation(o, s)
		tr := b.tr
		b.tr = nil
		defer func() { b.tr = tr }()
		err = b.warmup(func() error {
			for i := 0; i < 3; i++ {
				session()
			}
			return nil
		})
		queryLat, allLat = nil, nil
		if err != nil {
			stop()
			return 0, 0, err
		}
		return secs, heap, nil
	}

	if !cfg.trace {
		secs, heap, err := start()
		if err != nil {
			return err
		}
		loop(cfg.seconds)
		stop()
		if len(queryLat) == 0 {
			return fmt.Errorf("gene_lists: no query completed")
		}
		var busy float64
		for _, x := range allLat {
			busy += x
		}
		b.s.add(samples{Setup: []float64{secs}, Heap: []float64{heap}, Latency: queryLat, Items: float64(len(allLat)), Busy: busy})
		b.logf("gene_lists: %d queries, %d requests, p50 %.2f ms, set-up %.3fs", len(queryLat), len(allLat), median(queryLat)*1000, secs)
		return nil
	}

	// Traced run, on one build: half the time untraced, for the overhead
	// figure, then half with spans, counters around every request, and
	// after every query a replay of the calls its handler and the facade
	// make.
	if _, _, err := start(); err != nil {
		return err
	}
	defer stop()
	tr := b.tr
	b.tr = nil
	loop(cfg.seconds / 2)
	untraced := median(queryLat)
	queryLat, allLat = nil, nil
	b.tr, d = tr, &delta{}
	repo := sys.Repo()
	var renders int
	var pointLookups uint64
	replay = func(q listQuery, req, qspan int64) {
		if err := replayQuery(b, sys, repo, q, req, qspan, &renders, &pointLookups); err != nil {
			b.mismatch("replay of %s: %v", q.form().Encode(), err)
		}
	}
	before := b.ops.attempted.Load()
	loop(cfg.seconds / 2)
	self := b.tr.selfTimes()
	for metric, span := range map[string]string{
		"server.query_self_ms":         "server.query",
		"genmapper.sources_ms":         "genmapper.sources",
		"gam.stats_ms":                 "gam.stats",
		"genmapper.annotation_view_ms": "genmapper.annotation_view",
		"gam.lookup_objects_ms":        "gam.lookup_objects",
		"ops.generate_view_ms":         "ops.generate_view",
		"ops.map_path_ms":              "ops.map_path",
		"graph.shortest_path_ms":       "graph.shortest_path",
		"view.render_ms":               "view.render",
	} {
		b.layers.medianSelf(metric, self, span)
	}
	b.layers["view.point_lookups"] = ratio(float64(pointLookups), float64(renders))
	b.layers.counterMetrics(d, int(b.ops.attempted.Load()-before))
	b.layers["trace.overhead_pct"] = (median(queryLat) - untraced) / untraced * 100
	return nil
}

// replayQuery repeats, through their public functions, the calls that
// POST /query makes: the page's Sources and Stats, then AnnotationView,
// and inside it the accession lookup, the explicit-path compositions,
// GenerateView (with its path searches) and Render. The replayed view is
// checked against the model like the page.
func replayQuery(b *bench, sys *genmapper.System, repo *gam.Repo, q listQuery, req, qspan int64, renders *int, pointLookups *uint64) error {
	tr := b.tr
	if _, err := tr.do("genmapper.sources", qspan, req, func() error {
		if len(sys.Sources()) == 0 {
			return fmt.Errorf("no sources")
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := tr.do("gam.stats", qspan, req, func() error {
		_, err := sys.Stats()
		return err
	}); err != nil {
		return err
	}
	fq := q.facade()
	var table *genmapper.Table
	av, err := tr.do("genmapper.annotation_view", qspan, req, func() error {
		var err error
		table, err = sys.AnnotationView(fq)
		return err
	})
	if err != nil {
		return err
	}
	if table.RowCount() == 0 && !q.and {
		return fmt.Errorf("OR view is empty")
	}

	src := repo.SourceByName(q.source)
	var ids map[string]gam.ObjectID
	if _, err := tr.do("gam.lookup_objects", av, req, func() error {
		var err error
		ids, err = repo.LookupObjects(src.ID, q.accessions)
		return err
	}); err != nil {
		return err
	}
	sSet := ops.ObjectSet{}
	for _, id := range ids {
		sSet[id] = true
	}
	specs := make([]ops.TargetSpec, len(q.targets))
	for i, t := range q.targets {
		specs[i] = ops.TargetSpec{Source: repo.SourceByName(t.name).ID, Negate: t.negate}
		if len(t.via) == 0 {
			continue
		}
		path := make([]gam.SourceID, len(t.via))
		for j, n := range t.via {
			path[j] = repo.SourceByName(n).ID
		}
		if _, err := tr.do("ops.map_path", av, req, func() error {
			var err error
			specs[i].Mapping, err = sys.Executor().MapPath(path)
			return err
		}); err != nil {
			return err
		}
	}
	mode := ops.CombineOR
	if q.and {
		mode = ops.CombineAND
	}
	var v *ops.View
	gv, err := tr.do("ops.generate_view", av, req, func() error {
		var err error
		v, err = ops.GenerateView(repo, src.ID, sSet, specs, mode, sys.Resolver())
		return err
	})
	if err != nil {
		return err
	}
	for i, t := range q.targets {
		if len(t.via) > 0 {
			continue
		}
		to := specs[i].Source
		if _, err := tr.do("graph.shortest_path", gv, req, func() error {
			if sys.Graph().ShortestPath(src.ID, to) == nil {
				return fmt.Errorf("no path to %s", t.name)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	before := sys.SQLPlanStats().IndexEqScans
	var rendered *view.Table
	if _, err := tr.do("view.render", av, req, func() error {
		var err error
		rendered, err = view.Render(repo, v, view.Options{})
		return err
	}); err != nil {
		return err
	}
	*pointLookups += sys.SQLPlanStats().IndexEqScans - before
	*renders++
	if rendered.RowCount() != table.RowCount() {
		return fmt.Errorf("replayed render has %d rows, AnnotationView %d", rendered.RowCount(), table.RowCount())
	}
	return nil
}

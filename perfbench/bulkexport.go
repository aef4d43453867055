package main

import (
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
	"genmapper/internal/profile"
	"genmapper/internal/view"
)

// exportFormats are the download formats of the bulk_export mix.
var exportFormats = []string{"tsv", "csv", "json"}

// roundSeconds is the nominal length of one round of the export list. A
// process runs seconds/roundSeconds rounds, at least one: the work of a run
// follows --seconds but not the machine's speed, since a later round finds
// the executor cache in another state than the first.
const roundSeconds = 10.0 / 3

// profileEvery is how many exports run between two profiling runs.
const profileEvery = 10

// The §5.2 profiling path: chip probes to UniGene, to LocusLink, to GO.
var profilePath = []string{"NetAffx-HG-U133A", "Unigene", "LocusLink", "GO"}

// exportReq is one whole-source download of the fixed export list, with
// what the model expects of it.
type exportReq struct {
	source  string
	targets []target
	and     bool
	format  string
	full    bool       // checked row by row, not only by shape
	columns []string   // expected header
	count   int        // expected rows
	rows    [][]string // expected rows when full
}

func (e exportReq) query() url.Values {
	q := url.Values{"source": {e.source}, "format": {e.format}, "mode": {"OR"}}
	if e.and {
		q.Set("mode", "AND")
	}
	for _, t := range e.targets {
		q.Add("target", t.spec())
	}
	return q
}

// maxExportRows caps the size of one export in the list. Fan-outs multiply
// along composed paths and across targets, so a few source pairs yield
// views of millions of rows that would take a run's whole length; the
// list keeps downloads a batch client makes in one request.
const maxExportRows = 100000

// listSeed draws the list's source-target pairs and modes. It is fixed:
// per-row cost varies several-fold between pairs, and with pairs drawn
// from the run's seed the median per-export throughput of four seeds
// spread 66k–97k rows/s. The run's seed orders the list, assigns the
// formats by position and picks the exports checked in full.
const listSeed = 1

// exportList builds the fixed list of whole-source exports. Export sizes
// are heavy-tailed and follow the source, so the list is stratified: every
// source is exported twice, once to one target and once to two, drawn from
// the sources connected to it and redrawn while the model says the view
// would exceed maxExportRows; each export gets OR or AND. Then rng shuffles
// the list, the formats cycle through tsv, csv and json, and one export in
// eight is checked in full.
func exportList(rng *rand.Rand, o *oracle) []exportReq {
	pairs := rand.New(rand.NewSource(listSeed))
	var sources []string
	for s := range o.sources {
		if len(o.objects[s]) > 0 {
			sources = append(sources, s)
		}
	}
	sort.Strings(sources)
	composed := map[string]map[string]map[string]bool{}
	size := func(e exportReq) int {
		var vts []viewTarget
		for _, t := range e.targets {
			p := o.path(e.source, t.name)
			key := strings.Join(p, ">")
			m, ok := composed[key]
			if !ok {
				var err error
				if m, err = o.compose(p); err != nil {
					return math.MaxInt
				}
				composed[key] = m
			}
			vts = append(vts, viewTarget{mapping: m})
		}
		return viewRowCount(o.accessions(e.source), vts, e.and)
	}
	var out []exportReq
	for _, s := range sources {
		var cands []string
		for _, t := range sources {
			if s != t && o.connected(s, t) {
				cands = append(cands, t)
			}
		}
		for k := 1; k <= 2 && k <= len(cands); k++ {
			for try := 0; try < 20; try++ {
				pairs.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
				e := exportReq{source: s, and: pairs.Intn(2) == 1}
				for _, t := range cands[:k] {
					e.targets = append(e.targets, target{name: t})
				}
				if size(e) <= maxExportRows {
					out = append(out, e)
					break
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].format = exportFormats[i%len(exportFormats)]
		out[i].full = rng.Intn(8) == 0
	}
	return out
}

// profileCheck holds the model's answer for a profiling run: per GO term,
// the detected and differential probes annotated to it or to a term it
// subsumes.
type profileCheck struct {
	study              *profile.Study
	annotated          int // probes with at least one GO annotation
	detected, differen map[string]int
}

func newProfileCheck(o *oracle, seed int64) (*profileCheck, error) {
	annot, err := o.compose(profilePath)
	if err != nil {
		return nil, err
	}
	chip, ontology := profilePath[0], profilePath[len(profilePath)-1]
	probeTerms := map[string][]string{}
	for p, ts := range annot {
		for t := range ts {
			probeTerms[p] = append(probeTerms[p], t)
		}
		sort.Strings(probeTerms[p])
	}
	cfg := profile.DefaultStudyConfig()
	cfg.Seed = seed
	study := profile.NewStudy(cfg, o.accessions(chip), probeTerms, o.accessions(ontology))
	anc := o.ancestors(ontology)
	pc := &profileCheck{study: study, annotated: len(annot), detected: map[string]int{}, differen: map[string]int{}}
	for p, ts := range probeTerms {
		covered := map[string]bool{}
		for _, t := range ts {
			for _, a := range anc[t] {
				covered[a] = true
			}
		}
		for t := range covered {
			if study.Detected[p] {
				pc.detected[t]++
			}
			if study.Differential[p] {
				pc.differen[t]++
			}
		}
	}
	for t, n := range pc.detected {
		if n == 0 {
			delete(pc.detected, t)
		}
	}
	return pc, nil
}

// newPipeline wires the §5.2 pipeline along profilePath.
func newPipeline(sys *genmapper.System) (*profile.Pipeline, error) {
	return profile.NewPipeline(sys.Repo(), profilePath[0], profilePath[1], profilePath[2], profilePath[3])
}

// check compares a profiling result with the model.
func (pc *profileCheck) check(e *profile.Enrichment) error {
	_, det, diff := pc.study.Counts()
	if e.PopulationSize != det || e.SampleSize != diff {
		return fmt.Errorf("population %d sample %d, want %d and %d", e.PopulationSize, e.SampleSize, det, diff)
	}
	if len(e.Results) != len(pc.detected) {
		return fmt.Errorf("%d terms with detected genes, want %d", len(e.Results), len(pc.detected))
	}
	for _, r := range e.Results {
		if r.Detected != pc.detected[r.Term] || r.Differential != pc.differen[r.Term] {
			return fmt.Errorf("term %s: detected %d differential %d, want %d and %d",
				r.Term, r.Detected, r.Differential, pc.detected[r.Term], pc.differen[r.Term])
		}
	}
	return nil
}

// bulkExport runs the batch-analysis workload: one closed-loop client
// downloading whole annotation views from a fixed seeded list, with one
// §5.2 profiling run after every few exports, in whole rounds of the list.
func bulkExport(b *bench) error {
	cfg := b.cfg
	ds, err := datasets(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	o := oracleOf(ds)
	list := exportList(rand.New(rand.NewSource(cfg.seed)), o)
	pc, err := newProfileCheck(o, cfg.seed)
	if err != nil {
		return err
	}

	var sys *genmapper.System
	var c *client
	var pipe *profile.Pipeline
	var exportLat, profileLat, rates []float64
	var rowsGot int
	var d *delta
	var replay func(e exportReq, req, span int64, cold bool)
	export := func(e exportReq, req int64) {
		var body []byte
		var lat time.Duration
		misses := sys.CacheStats().Misses
		id, err := b.request(sys, d, "server.export", req, func() error {
			var err error
			body, lat, err = c.get("/export", e.query())
			return err
		})
		if err != nil {
			b.logf("export failed: %v", err)
			return
		}
		exportLat = append(exportLat, lat.Seconds())
		got, err := parseExport(body, e.format)
		if err == nil {
			if e.full {
				err = checkRows(got, e.columns, e.rows)
			} else {
				err = checkShape(got, e.columns, e.count)
			}
		}
		if err != nil {
			b.mismatch("export %s: %v", e.query().Encode(), err)
		}
		rowsGot += len(got.rows)
		if len(got.rows) > 0 {
			rates = append(rates, float64(len(got.rows))/lat.Seconds())
		}
		if replay != nil {
			replay(e, req, id, sys.CacheStats().Misses > misses)
		}
	}
	runProfile := func(req int64) {
		var res *profile.Enrichment
		start := time.Now()
		_, err := b.request(sys, nil, "profile.run", req, func() error {
			var err error
			res, err = pipe.Run(pc.study)
			return err
		})
		if err != nil {
			b.logf("profiling failed: %v", err)
			return
		}
		profileLat = append(profileLat, time.Since(start).Seconds())
		if err := pc.check(res); err != nil {
			b.mismatch("profiling run: %v", err)
		}
	}
	round := func() {
		for i, e := range list {
			req := int64(len(exportLat) + len(profileLat) + 1)
			export(e, req)
			if (i+1)%profileEvery == 0 {
				runProfile(req + 1)
			}
		}
	}
	stop := func() {
		c.close()
		sys.Close()
	}
	// start builds the system, derives the expected exports (untimed),
	// serves it and warms it up with a few exports and one profiling run,
	// uncounted.
	start := func() (secs, heap float64, err error) {
		s, secs, heap, err := timedBuild(inMemory(ds))
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		sys, c = s, serve(s)
		if err := expectExports(o, sys, list); err != nil {
			stop()
			return 0, 0, err
		}
		if pipe, err = newPipeline(sys); err != nil {
			stop()
			return 0, 0, err
		}
		tr := b.tr
		b.tr = nil
		defer func() { b.tr = tr }()
		err = b.warmup(func() error {
			for _, e := range list[:min(10, len(list))] {
				export(e, 0)
			}
			runProfile(0)
			return nil
		})
		exportLat, profileLat, rates, rowsGot = nil, nil, nil, 0
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
		for i := 0; i < max(1, int(math.Round(cfg.seconds/roundSeconds))); i++ {
			round()
		}
		stop()
		if len(exportLat) == 0 || len(profileLat) == 0 {
			return fmt.Errorf("bulk_export: no export or profiling run completed")
		}
		var busy float64
		for _, x := range exportLat {
			busy += x
		}
		b.s.add(samples{Setup: []float64{secs}, Heap: []float64{heap}, Latency: profileLat, Items: float64(rowsGot), Busy: busy, Rates: rates})
		b.logf("bulk_export: %d exports, %d rows, %d profiling runs, %.3fs exporting, set-up %.3fs",
			len(exportLat), rowsGot, len(profileLat), busy, secs)
		return nil
	}

	// Traced run, on one build: one untraced round for the overhead
	// figure, then one traced round with a replay of every export's layer
	// calls.
	if _, _, err := start(); err != nil {
		return err
	}
	defer stop()
	tr := b.tr
	b.tr = nil
	round()
	untraced := median(exportLat)
	exportLat, profileLat = nil, nil
	b.tr, d = tr, &delta{}
	repo := sys.Repo()
	var streams int
	var pointLookups uint64
	replay = func(e exportReq, req, span int64, cold bool) {
		if err := replayExport(b, sys, repo, e, req, span, cold, &pointLookups); err != nil {
			b.mismatch("replay of export %s: %v", e.query().Encode(), err)
		}
		streams++
	}
	before := b.ops.attempted.Load()
	round()
	annotations := 0
	for range profileLat {
		var annot map[string][]string
		if _, err := b.tr.do("profile.annotate", 0, 0, func() error {
			var err error
			annot, err = pipe.ProbeAnnotations()
			return err
		}); err != nil {
			return err
		}
		annotations = len(annot)
	}
	if annotations != pc.annotated {
		b.mismatch("ProbeAnnotations annotates %d probes, the model %d", annotations, pc.annotated)
	}
	self := b.tr.selfTimes()
	for metric, span := range map[string]string{
		"server.export_self_ms":  "server.export",
		"graph.shortest_path_ms": "graph.shortest_path",
		"ops.map_path_ms":        "ops.map_path",
		"ops.generate_view_ms":   "ops.generate_view",
		"view.stream_ms":         "view.stream",
		"profile.run_ms":         "profile.run",
		"profile.annotate_ms":    "profile.annotate",
	} {
		b.layers.medianSelf(metric, self, span)
	}
	b.layers["view.point_lookups"] = ratio(float64(pointLookups), float64(streams))
	b.layers.counterMetrics(d, int(b.ops.attempted.Load()-before)-len(profileLat))
	b.layers["trace.overhead_pct"] = (median(exportLat) - untraced) / untraced * 100
	return nil
}

// expectExports derives every export's header, row count and, for those
// checked in full, rows from the model, composing along the paths sys
// reports.
func expectExports(o *oracle, sys *genmapper.System, list []exportReq) error {
	exp := newExpectation(o, sys)
	for i := range list {
		e := &list[i]
		vts, err := exp.targets(e.source, e.targets)
		if err != nil {
			return fmt.Errorf("expected export %s: %w", e.query().Encode(), err)
		}
		e.columns = append([]string{e.source}, names(e.targets)...)
		all := o.accessions(e.source)
		e.count = viewRowCount(all, vts, e.and)
		if e.full {
			e.rows = viewRows(all, vts, e.and)
		}
	}
	return nil
}

func names(ts []target) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.name
	}
	return out
}

// replayExport repeats, through their public functions, the calls that
// GET /export makes below the facade: GenerateView with the system's
// resolver (now a cache hit) and inside it the path search of every target
// without a direct mapping, the streaming render, and the composition along
// each target's path, uncached, which is what the request paid when it
// missed the executor cache (cold). Only then is the composition counted as
// part of the request.
func replayExport(b *bench, sys *genmapper.System, repo *gam.Repo, e exportReq, req, span int64, cold bool, pointLookups *uint64) error {
	tr := b.tr
	src := repo.SourceByName(e.source)
	specs := make([]ops.TargetSpec, len(e.targets))
	for i, t := range e.targets {
		specs[i] = ops.TargetSpec{Source: repo.SourceByName(t.name).ID}
	}
	mode := ops.CombineOR
	if e.and {
		mode = ops.CombineAND
	}
	var v *ops.View
	gv, err := tr.do("ops.generate_view", span, req, func() error {
		var err error
		v, err = ops.GenerateView(repo, src.ID, nil, specs, mode, sys.Resolver())
		return err
	})
	if err != nil {
		return err
	}
	if len(v.Rows) != e.count {
		return fmt.Errorf("replayed view has %d rows, want %d", len(v.Rows), e.count)
	}
	composeParent := int64(0)
	if cold {
		composeParent = span
	}
	for i, t := range e.targets {
		var path []gam.SourceID
		to := specs[i].Source
		// The resolver searches a path only for targets without a direct
		// mapping.
		searchParent := gv
		if rel, _, err := repo.FindMapping(src.ID, to); err != nil {
			return err
		} else if rel != nil {
			searchParent = 0
		}
		if _, err := tr.do("graph.shortest_path", searchParent, req, func() error {
			path = sys.Graph().ShortestPath(src.ID, to)
			if path == nil {
				return fmt.Errorf("no path to %s", t.name)
			}
			return nil
		}); err != nil {
			return err
		}
		if _, err := tr.do("ops.map_path", composeParent, req, func() error {
			_, err := ops.MapPath(repo, path)
			return err
		}); err != nil {
			return err
		}
	}
	before := sys.SQLPlanStats().IndexEqScans
	var sink countingWriter
	if _, err := tr.do("view.stream", span, req, func() error {
		return view.Stream(repo, v, view.Options{}, &sink, e.format, 512, nil)
	}); err != nil {
		return err
	}
	*pointLookups += sys.SQLPlanStats().IndexEqScans - before
	if sink == 0 {
		return fmt.Errorf("stream wrote nothing")
	}
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

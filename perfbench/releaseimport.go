package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"genmapper"
	"genmapper/internal/eav"
	"genmapper/internal/importer"
	"genmapper/internal/wal"
)

// The release_import reader's gene-list export.
var (
	readerSource  = "LocusLink"
	readerTargets = []string{"GO", "Hugo"}
)

// durableOptions are the program's defaults except the fsync policy: with
// "off" the import's time measures the program, not the host's disk.
var durableOptions = genmapper.DurableOptions{Sync: wal.SyncOff}

// dumpHash returns a digest of the database's deterministic dump.
func dumpHash(sys *genmapper.System) ([32]byte, error) {
	h := sha256.New()
	var sum [32]byte
	if err := sys.DB().Dump(h); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// releaseImport runs the operator workload: a durable system holding
// release 1 imports release 2 of every source while one closed-loop
// reader downloads gene-list views; then the system is closed and the
// directory reopened until the run length is reached.
func releaseImport(b *bench) error {
	cfg := b.cfg
	r1, err := datasets(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	r2, err := datasets(cfg.seed+1, cfg.scale)
	if err != nil {
		return err
	}
	o1 := oracleOf(r1)
	union := o1.clone()
	for _, d := range r2 {
		union.add(d)
	}
	wantNew := newAssocs(o1, union)
	wantTotals := union.totals().String()

	base := filepath.Join(cfg.workDir, "release_import")
	if err := os.RemoveAll(base); err != nil {
		return err
	}
	defer os.RemoveAll(base)
	// Set-up: a fresh data directory, release 1 imported, then a
	// checkpoint.
	dir := filepath.Join(base, "data")
	var checkpointMs float64
	sys, setup, heap, err := timedBuild(func() (*genmapper.System, error) {
		sys, err := genmapper.OpenDurable(dir, durableOptions)
		if err != nil {
			return nil, err
		}
		if _, err := importAll(sys, r1, nil); err != nil {
			sys.Close()
			return nil, err
		}
		start := time.Now()
		if err := sys.Checkpoint(); err != nil {
			sys.Close()
			return nil, err
		}
		checkpointMs = float64(time.Since(start)) / 1e6
		return sys, nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.logf("release_import: set-up %.3fs, heap %.1f MB", setup, heap)

	// The reader: gene lists of release 1's LocusLink genes, annotated
	// with GO and Hugo. While the import runs, a view may show any state
	// between the releases, so it is checked for properties: one row or
	// more for every listed gene and nothing else, and every annotation
	// one of the two releases holds.
	readerMaps := map[string]map[string]map[string]bool{}
	for _, t := range readerTargets {
		m, err := union.compose([]string{readerSource, t})
		if err != nil {
			return err
		}
		readerMaps[t] = m
	}
	genes := o1.accessions(readerSource)
	c := serve(sys)
	readerRNG := rand.New(rand.NewSource(cfg.seed + 2))
	read := func(req int64) error {
		list := geneList(readerRNG, genes, listSize(readerRNG))
		q := url.Values{"source": {readerSource}, "accessions": {strings.Join(list, ",")}, "format": {"tsv"}, "mode": {"OR"}}
		for _, t := range readerTargets {
			q.Add("target", t)
		}
		var body []byte
		if _, err := b.request(sys, nil, "server.export", req, func() error {
			var err error
			body, _, err = c.get("/export", q)
			return err
		}); err != nil {
			b.logf("reader request failed: %v", err)
			return nil
		}
		got, err := parseExport(body, "tsv")
		if err != nil {
			return err
		}
		return checkReaderView(got, list, readerMaps)
	}
	if err := b.warmup(func() error {
		for i := 0; i < 3; i++ {
			if err := read(0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		c.close()
		return err
	}

	// Timed import of release 2 with the reader running beside it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerErr error
	reads := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for req := int64(1); ; req++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(req); err != nil && readerErr == nil {
				readerErr = err
			}
			reads++
		}
	}()
	var d delta
	var stats []*importer.Stats
	var importDur time.Duration
	err = d.around(sys, func() error {
		start := time.Now()
		var err error
		stats, err = importAll(sys, r2, func(ds *eav.Dataset, imp func() error) error {
			return b.ops.do(func() error {
				_, err := b.tr.do("importer.import", 0, 0, imp)
				return err
			})
		})
		importDur = time.Since(start)
		return err
	})
	close(stop)
	wg.Wait()
	c.close()
	if err != nil {
		return fmt.Errorf("import release 2: %w", err)
	}
	if readerErr != nil {
		b.mismatch("reader during import: %v", readerErr)
	}
	var added, dups int
	for _, st := range stats {
		added += st.AssocsNew
		dups += st.AssocsDup
	}
	if added != wantNew {
		b.mismatch("release 2 added %d associations, the model %d", added, wantNew)
	}
	if st, err := sys.Stats(); err != nil {
		return err
	} else if st.String() != wantTotals {
		b.mismatch("totals after release 2: %q, want %q", st.String(), wantTotals)
	}
	before, err := dumpHash(sys)
	if err != nil {
		return err
	}
	b.logf("release_import: %d new associations in %.3fs, %d reads beside it", added, importDur.Seconds(), reads)

	// Reopen: close and collect the system, then open the directory
	// (checkpoint load plus log replay) until the first query succeeds.
	if err := sys.Close(); err != nil {
		return err
	}
	sys = nil
	probe := genmapper.Query{Source: readerSource, Accessions: genes[:min(20, len(genes))], Targets: []genmapper.Target{{Source: readerTargets[0]}}}
	wantProbe := viewRows(probe.Accessions, []viewTarget{{mapping: readerMaps[readerTargets[0]]}}, false)
	var recovery []float64
	var recovered uint64
	start := time.Now()
	for i := 0; i == 0 || (time.Since(start)+importDur).Seconds() < cfg.seconds; i++ {
		runtime.GC()
		var s *genmapper.System
		var tbl *genmapper.Table
		t0 := time.Now()
		err := b.ops.do(func() error {
			var err error
			if s, err = genmapper.OpenDurable(dir, durableOptions); err != nil {
				return err
			}
			tbl, err = s.AnnotationView(probe)
			return err
		})
		lat := time.Since(t0)
		if err != nil {
			if s != nil {
				s.Close()
			}
			b.logf("reopen failed: %v", err)
			continue
		}
		recovery = append(recovery, lat.Seconds())
		if err := checkRows(table{columns: tbl.Columns, rows: tbl.Rows}, []string{readerSource, readerTargets[0]}, wantProbe); err != nil {
			b.mismatch("first query after reopen: %v", err)
		}
		if i == 0 {
			after, err := dumpHash(s)
			if err != nil {
				return err
			}
			if after != before {
				b.mismatch("database dump after reopen differs from the dump before close")
			}
			recovered = s.SQLWALStats().RecoveredRecords
		}
		if err := s.Close(); err != nil {
			return err
		}
	}
	if len(recovery) == 0 {
		return fmt.Errorf("release_import: no reopen succeeded")
	}
	b.logf("release_import: %d reopens, median %.3fs", len(recovery), median(recovery))

	if !cfg.trace {
		b.s.add(samples{Setup: []float64{setup}, Heap: []float64{heap}, Latency: recovery, Items: float64(added), Busy: importDur.Seconds()})
		return nil
	}
	self := b.tr.selfTimes()
	b.layers.medianSelf("importer.import_ms", self, "importer.import")
	b.layers.medianSelf("server.export_self_ms", self, "server.export")
	b.layers["importer.dup_ratio"] = ratio(float64(dups), float64(added+dups))
	b.layers["wal.appends"] = float64(d.walAppends)
	b.layers["wal.append_bytes"] = float64(d.walBytes)
	b.layers["wal.bytes_per_assoc"] = ratio(float64(d.walBytes), float64(added))
	b.layers["wal.fsyncs"] = float64(d.walFsyncs)
	b.layers["wal.recovered_records"] = float64(recovered)
	b.layers["wal.checkpoint_ms"] = checkpointMs
	b.layers["sqldb.stmt_cache_hit_ratio"] = ratio(float64(d.stmtHits), float64(d.stmtHits+d.stmtMisses))
	b.layers["runtime.alloc_mb_per_op"] = ratio(float64(d.allocBytes)/1e6, float64(len(r2)))
	b.layers["runtime.gc_cpu_fraction"] = ratio(d.gcCPU, d.totCPU)
	return nil
}

// checkReaderView verifies one view the release_import reader received
// against the union of both releases' mappings.
func checkReaderView(got table, list []string, maps map[string]map[string]map[string]bool) error {
	cols := append([]string{readerSource}, readerTargets...)
	if err := checkShape(got, cols, len(got.rows)); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, g := range list {
		want[g] = true
	}
	seen := map[string]bool{}
	for _, r := range got.rows {
		if !want[r[0]] {
			return fmt.Errorf("row for unlisted gene %q", r[0])
		}
		seen[r[0]] = true
		for i, t := range readerTargets {
			if cell := r[i+1]; cell != "" && !maps[t][r[0]][cell] {
				return fmt.Errorf("gene %s: %s annotation %q is in neither release", r[0], t, cell)
			}
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("view covers %d of %d listed genes", len(seen), len(want))
	}
	return nil
}

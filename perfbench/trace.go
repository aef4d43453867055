package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"genmapper"
	"genmapper/internal/ops"
	"genmapper/internal/sqldb"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span whose work caused this one (0 for a request's
// root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the release_import reader records beside the importer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a span and returns its ID, for use as the parent of the
// spans of the calls fn's layer makes.
func (tr *tracer) do(name string, parent, req int64, fn func() error) (int64, error) {
	if tr == nil {
		return 0, fn()
	}
	start := time.Since(tr.t0)
	err := fn()
	end := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	return id, err
}

// selfTimes returns, per span name, each span's self time in
// milliseconds: its duration minus the durations of its child spans.
// Children that the benchmark replays after the request are laid out
// beside their parent rather than inside it, so their durations, not their
// overlap with the parent's interval, are subtracted.
func (tr *tracer) selfTimes() map[string][]float64 {
	children := make(map[int64]time.Duration)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range tr.spans {
		self := s.dur() - children[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write stores the spans as one JSON file.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// counters is a snapshot of the program's own counters, sampled at the
// same boundaries as the spans.
type counters struct {
	cache  ops.CacheStats
	stmt   sqldb.StmtCacheStats
	plan   sqldb.PlanStats
	batch  sqldb.BatchStats
	wal    sqldb.WALStats
	alloc  uint64  // bytes allocated, cumulative
	gcCPU  float64 // GC CPU seconds, cumulative
	totCPU float64 // all CPU seconds of the process, cumulative
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sample(sys *genmapper.System) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return counters{
		cache:  sys.CacheStats(),
		stmt:   sys.SQLStmtCacheStats(),
		plan:   sys.SQLPlanStats(),
		batch:  sys.SQLBatchStats(),
		wal:    sys.SQLWALStats(),
		alloc:  ms.TotalAlloc,
		gcCPU:  floatSample(s[0]),
		totCPU: floatSample(s[1]),
	}
}

func floatSample(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// delta accumulates the counter movement between two snapshots.
type delta struct {
	cacheHits, cacheMisses uint64
	stmtHits, stmtMisses   uint64
	fullScans, indexEq     uint64
	joins, batchScans      uint64
	walAppends, walFsyncs  uint64
	walBytes               int64
	allocBytes             uint64
	gcCPU, totCPU          float64
}

func (d *delta) add(a, b counters) {
	d.cacheHits += b.cache.Hits - a.cache.Hits
	d.cacheMisses += b.cache.Misses - a.cache.Misses
	d.stmtHits += b.stmt.Hits - a.stmt.Hits
	d.stmtMisses += b.stmt.Misses - a.stmt.Misses
	d.fullScans += b.plan.FullScans - a.plan.FullScans
	d.indexEq += b.plan.IndexEqScans - a.plan.IndexEqScans
	d.joins += (b.plan.IndexJoins + b.plan.HashJoins + b.plan.NestedJoins) -
		(a.plan.IndexJoins + a.plan.HashJoins + a.plan.NestedJoins)
	d.batchScans += b.batch.BatchScans - a.batch.BatchScans
	d.walAppends += b.wal.Appends - a.wal.Appends
	d.walFsyncs += b.wal.Fsyncs - a.wal.Fsyncs
	d.walBytes += b.wal.SizeBytes - a.wal.SizeBytes
	d.allocBytes += b.alloc - a.alloc
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totCPU += b.totCPU - a.totCPU
}

// around samples the counters before and after fn and adds the movement to
// d. With a nil d it just runs fn.
func (d *delta) around(sys *genmapper.System, fn func() error) error {
	if d == nil {
		return fn()
	}
	a := sample(sys)
	err := fn()
	d.add(a, sample(sys))
	return err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerReport collects the per-layer metrics of a traced run.
type layerReport map[string]float64

// perLayer lists every per-layer metric with its unit, in report order.
// Metrics of layers a workload does not reach read 0 on it.
var perLayer = []struct{ name, unit string }{
	{"server.query_self_ms", "ms"},
	{"server.export_self_ms", "ms"},
	{"genmapper.annotation_view_ms", "ms"},
	{"genmapper.sources_ms", "ms"},
	{"gam.stats_ms", "ms"},
	{"gam.lookup_objects_ms", "ms"},
	{"ops.generate_view_ms", "ms"},
	{"ops.map_path_ms", "ms"},
	{"ops.cache_hit_ratio", "ratio"},
	{"graph.shortest_path_ms", "ms"},
	{"view.render_ms", "ms"},
	{"view.stream_ms", "ms"},
	{"view.point_lookups", "count/op"},
	{"profile.annotate_ms", "ms"},
	{"profile.run_ms", "ms"},
	{"importer.import_ms", "ms"},
	{"importer.dup_ratio", "ratio"},
	{"sqldb.stmt_cache_hit_ratio", "ratio"},
	{"sqldb.full_scans_per_op", "count"},
	{"sqldb.joins_per_op", "count"},
	{"sqldb.index_eq_scans_per_op", "count"},
	{"sqldb.batch_scans_per_op", "count"},
	{"wal.appends", "count"},
	{"wal.append_bytes", "B"},
	{"wal.bytes_per_assoc", "B"},
	{"wal.fsyncs", "count"},
	{"wal.recovered_records", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
}

// medianSelf sets a "<name>_ms" style metric from the median self time of
// the spans called span.
func (r layerReport) medianSelf(metric string, self map[string][]float64, span string) {
	if xs := self[span]; len(xs) > 0 {
		r[metric] = median(xs)
	}
}

// counterMetrics sets the per-op counter ratios from the movement d over
// ops requests.
func (r layerReport) counterMetrics(d *delta, ops int) {
	n := float64(ops)
	r["ops.cache_hit_ratio"] = ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))
	r["sqldb.stmt_cache_hit_ratio"] = ratio(float64(d.stmtHits), float64(d.stmtHits+d.stmtMisses))
	r["sqldb.full_scans_per_op"] = ratio(float64(d.fullScans), n)
	r["sqldb.joins_per_op"] = ratio(float64(d.joins), n)
	r["sqldb.index_eq_scans_per_op"] = ratio(float64(d.indexEq), n)
	r["sqldb.batch_scans_per_op"] = ratio(float64(d.batchScans), n)
	r["runtime.alloc_mb_per_op"] = ratio(float64(d.allocBytes)/1e6, n)
	r["runtime.gc_cpu_fraction"] = ratio(d.gcCPU, d.totCPU)
}

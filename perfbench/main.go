// Command perfbench is GenMapper's end-to-end benchmark. It generates its
// inputs from a seed, runs one workload against the program's public
// functions and its own HTTP handler over loopback, checks every output
// against a model computed apart from the program, and prints one JSON
// line with the workload's metrics:
//
//	go run . --workload gene_lists --seed 1 --seconds 10 --trace 0
//
// Workloads: gene_lists (the Figure 6 query interface), bulk_export (whole
// annotation views plus the §5.2 profiling pipeline) and release_import (a
// durable system loading its next source release). --trace 1 runs the same
// requests with spans around the calls into each layer and prints the
// per-layer metrics instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"genmapper"
)

// config is one run's settings. Sizes default per workload; the smoke test
// shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	part     int    // which process of a split run this is (varies the gene lists)
	workDir  string // data directories and span files go below it
	log      io.Writer
}

func defaultConfig(workload string, seed int64, seconds float64, trace bool) (config, error) {
	c := config{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		workDir: filepath.Join(".bench_build", "perfbench"), log: os.Stderr,
	}
	switch workload {
	case "gene_lists":
		c.scale = 0.02
	case "bulk_export":
		c.scale = 0.05
	case "release_import":
		c.scale = 0.03
	default:
		return c, fmt.Errorf("unknown workload %q (gene_lists, bulk_export, release_import)", workload)
	}
	return c, nil
}

// End-to-end metric names. Each workload reports all four; README.md says
// what each one measures on each workload.
const (
	metricSetup = "setup_s"
	metricHeap  = "live_heap_mb"
	metricP50   = "op_p50_ms"
	metricRate  = "items_per_s"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run shares with its helpers.
type bench struct {
	cfg      config
	ops      opCounter
	problems []string // output checks that failed
	tr       *tracer  // nil unless traced
	layers   layerReport
	s        samples
}

// samples are the raw measurements of an untraced run, kept raw so that
// the runs of several processes pool before medians are taken.
type samples struct {
	Setup     []float64 `json:"setup_s"`   // seconds per build
	Heap      []float64 `json:"heap_mb"`   // heap each build holds
	Latency   []float64 `json:"latency_s"` // the workload's timed operation
	Items     float64   `json:"items"`     // items completed: requests, associations
	Busy      float64   `json:"busy_s"`    // seconds spent completing them
	Rates     []float64 `json:"rates"`     // per-operation items per second, where the median is reported
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems"`
}

func (s *samples) add(o samples) {
	s.Setup = append(s.Setup, o.Setup...)
	s.Heap = append(s.Heap, o.Heap...)
	s.Latency = append(s.Latency, o.Latency...)
	s.Items += o.Items
	s.Busy += o.Busy
	s.Rates = append(s.Rates, o.Rates...)
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Problems = append(s.Problems, o.Problems...)
}

// result turns pooled samples into the end-to-end metrics.
func (s samples) result() (result, error) {
	rate := median(s.Rates)
	if len(s.Rates) == 0 {
		rate = s.Items / s.Busy
	}
	if s.Attempted == 0 || len(s.Latency) == 0 || len(s.Setup) == 0 || !(rate > 0) {
		return result{}, fmt.Errorf("run measured nothing (attempted %d, %d timed operations)", s.Attempted, len(s.Latency))
	}
	return result{
		Correct:   len(s.Problems) == 0,
		Attempted: s.Attempted,
		Failed:    s.Failed,
		Metrics: map[string]metric{
			metricSetup: {median(s.Setup), "s"},
			metricHeap:  {median(s.Heap), "MB"},
			metricP50:   {median(s.Latency) * 1000, "ms"},
			metricRate:  {rate, "1/s"},
		},
	}, nil
}

// mismatch records a failed output check.
func (b *bench) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(b.cfg.log, "perfbench: check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// request runs one HTTP request as a counted operation; in a traced run
// it is a root span with the counters sampled around it into d.
func (b *bench) request(sys *genmapper.System, d *delta, name string, req int64, call func() error) (int64, error) {
	var id int64
	err := b.ops.do(func() error {
		return d.around(sys, func() error {
			var err error
			id, err = b.tr.do(name, 0, req, call)
			return err
		})
	})
	return id, err
}

// warmup runs a discarded warm-up before a timed phase: its operations are
// checked but not counted, and a forced GC follows.
func (b *bench) warmup(fn func() error) error {
	attempted, failed := b.ops.attempted.Load(), b.ops.failed.Load()
	err := settle(fn)
	b.ops.attempted.Store(attempted)
	b.ops.failed.Store(failed)
	return err
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.cfg.log, "perfbench: "+format+"\n", args...)
}

// run executes one workload in this process. An untraced run returns its
// raw samples; a traced run writes its spans and returns the per-layer
// metrics.
func run(cfg config) (samples, result, error) {
	b := &bench{cfg: cfg, layers: layerReport{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	var err error
	switch cfg.workload {
	case "gene_lists":
		err = geneLists(b)
	case "bulk_export":
		err = bulkExport(b)
	case "release_import":
		err = releaseImport(b)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return samples{}, result{}, err
	}
	b.s.Attempted = b.ops.attempted.Load()
	b.s.Failed = b.ops.failed.Load()
	b.s.Problems = b.problems
	if !cfg.trace {
		return b.s, result{}, nil
	}
	res := result{
		Correct:   len(b.problems) == 0,
		Attempted: b.s.Attempted,
		Failed:    b.s.Failed,
		Metrics:   map[string]metric{},
	}
	path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := b.tr.write(path); err != nil {
		return b.s, res, err
	}
	b.logf("spans written to %s", path)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: b.layers[m.name], Unit: m.unit}
	}
	return b.s, res, nil
}

// parts is how many processes an untraced run is split into.
const parts = 3

// runParts splits an untraced run into parts processes, one after the
// other, each running this program on an equal share of the run length
// with one build, and pools their samples. A process's memory layout and
// the build it measures shift its timings by several percent; pooling
// several keeps any one of them from setting the result.
func runParts(cfg config) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var all samples
	for i := 0; i < parts; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds/parts, 'g', -1, 64),
			"--trace", "0", "--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("part %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var s samples
		if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
			return result{}, fmt.Errorf("part %d: %w", i, err)
		}
		all.add(s)
	}
	// The timed operation's distribution goes to the log; its p95 only
	// when the sample supports one.
	q1, q3 := quartiles(all.Latency)
	tail := "p95 withheld"
	if p95, err := tailPercentile(all.Latency, 95); err == nil {
		tail = fmt.Sprintf("p95 %.3f ms", p95*1000)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed operations, q1 %.3f ms, median %.3f ms, q3 %.3f ms, %s\n",
		cfg.workload, len(all.Latency), q1*1000, median(all.Latency)*1000, q3*1000, tail)
	return all.result()
}

func main() {
	workload := flag.String("workload", "", "gene_lists, bulk_export or release_import")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phases run, in total")
	trace := flag.Int("trace", 0, "1 runs with spans and prints the per-layer metrics")
	part := flag.Int("part", -1, "internal: run one part of a split run and print its raw samples")
	flag.Parse()
	cfg, err := defaultConfig(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var out any
	correct := true
	switch {
	case cfg.trace:
		var res result
		_, res, err = run(cfg)
		out, correct = res, res.Correct
	case *part >= 0:
		cfg.part = *part
		var s samples
		s, _, err = run(cfg)
		out = s
	default:
		var res result
		res, err = runParts(cfg)
		out, correct = res, res.Correct
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

package main

import (
	"io"
	"testing"
)

// tinyConfig shrinks a workload so that all three run, with every output
// check, in a few seconds.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	c, err := defaultConfig(workload, 7, 0.2, trace)
	if err != nil {
		t.Fatal(err)
	}
	c.scale = 0.004
	c.workDir = t.TempDir()
	c.log = io.Discard
	if testing.Verbose() {
		c.log = testWriter{t}
	}
	return c
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range []string{"gene_lists", "bulk_export", "release_import"} {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			s, res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			if !trace {
				if res, err = s.result(); err != nil {
					t.Fatalf("%s: %v", w, err)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v attempted %d failed %d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				if len(res.Metrics) != len(perLayer) {
					t.Errorf("%s traced: %d metrics, want %d", w, len(res.Metrics), len(perLayer))
				}
				continue
			}
			for _, name := range []string{metricSetup, metricHeap, metricP50, metricRate} {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s: metric %s = %+v, want a positive value", w, name, m)
				}
			}
			if len(res.Metrics) != 4 {
				t.Errorf("%s: %d end-to-end metrics, want 4", w, len(res.Metrics))
			}
		}
	}
}

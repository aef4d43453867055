package main

import (
	"errors"
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{0.5, 1.5, 1.0, 2.0, 2.5, 3.0, 10.0}, 1.0, 3.0},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p95, err := tailPercentile(xs, 95)
	if err != nil {
		t.Fatalf("200 samples, p95: %v", err)
	}
	if p95 != 190 {
		t.Errorf("p95 = %v, want 190", p95)
	}
	// 199 samples leave only 9 beyond the 95th percentile: refused.
	if _, err := tailPercentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples was reported")
	}
	if _, err := tailPercentile(nil, 50); err == nil {
		t.Error("p50 of no samples was reported")
	}
}

func TestOpCounter(t *testing.T) {
	var c opCounter
	boom := errors.New("boom")
	for i := 0; i < 5; i++ {
		i := i
		err := c.do(func() error {
			if i%2 == 0 {
				return boom
			}
			return nil
		})
		if (i%2 == 0) != errors.Is(err, boom) {
			t.Fatalf("op %d: error %v not passed through", i, err)
		}
	}
	if c.attempted.Load() != 5 || c.failed.Load() != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", c.attempted.Load(), c.failed.Load())
	}
}

func TestWarmupIsNotCounted(t *testing.T) {
	b := &bench{}
	b.ops.do(func() error { return nil })
	ran := false
	if err := b.warmup(func() error {
		ran = true
		b.ops.do(func() error { return errors.New("cold") })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("warm-up did not run")
	}
	if b.ops.attempted.Load() != 1 || b.ops.failed.Load() != 0 {
		t.Errorf("after warm-up: attempted %d failed %d, want 1 and 0", b.ops.attempted.Load(), b.ops.failed.Load())
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "server.query", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "gam.stats", Start: 20e6, End: 27e6},
		{ID: 3, Parent: 1, Name: "genmapper.annotation_view", Start: 30e6, End: 32e6},
		{ID: 4, Parent: 3, Name: "view.render", Start: 30e6, End: 31e6},
	}
	self := tr.selfTimes()
	for name, want := range map[string]float64{
		"server.query": 1, "gam.stats": 7, "genmapper.annotation_view": 1, "view.render": 1,
	} {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v ms", name, got, want)
		}
	}
}

func TestSamplesPoolAcrossProcesses(t *testing.T) {
	var all samples
	all.add(samples{Setup: []float64{1}, Heap: []float64{10}, Latency: []float64{0.1, 0.3}, Items: 4, Busy: 2, Attempted: 5})
	all.add(samples{Setup: []float64{3}, Heap: []float64{12}, Latency: []float64{0.2}, Items: 2, Busy: 1, Attempted: 3, Failed: 1})
	res, err := all.result()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{metricSetup: 2, metricHeap: 11, metricP50: 200, metricRate: 2}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if res.Attempted != 8 || res.Failed != 1 || !res.Correct {
		t.Errorf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
	}
	// Per-operation rates, where given, report their median instead.
	all.add(samples{Rates: []float64{5, 7, 100}, Problems: []string{"row differs"}})
	res, err = all.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics[metricRate].Value != 7 || res.Correct {
		t.Errorf("rate %v correct %v, want 7 and false", res.Metrics[metricRate].Value, res.Correct)
	}
	if _, err := (samples{}).result(); err == nil {
		t.Error("an empty run produced a result")
	}
}

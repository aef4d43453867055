package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so that
// spreads computed here agree with spreads computed over the printed
// results.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := n + 1
		pos := j * m // position in quarters: index*4
		k := pos / 4
		delta := float64(pos%4) / 4
		lo := clampIndex(k-1, n)
		hi := clampIndex(k, n)
		return s[lo] + (s[hi]-s[lo])*delta
	}
	return at(1), at(3)
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer would make the "tail" a handful of requests.
const minBeyond = 10

// tailPercentile returns the p-th percentile (0 < p < 100, nearest rank) of
// xs, or an error when fewer than minBeyond samples lie beyond it. Callers
// fail the run on that error rather than print an unsupported tail.
func tailPercentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// opCounter counts operations attempted and failed. It is safe for
// concurrent use, since the release_import reader counts alongside the
// importer.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// do runs one operation, counting it as attempted and, when it returns an
// error, as failed. The error is passed through.
func (c *opCounter) do(op func() error) error {
	c.attempted.Add(1)
	err := op()
	if err != nil {
		c.failed.Add(1)
	}
	return err
}

// settle prepares a timed phase: a discarded warm-up (when given) lets
// caches fill and lazy set-up finish, then a forced GC keeps the garbage of
// earlier phases from being collected on this phase's clock.
func settle(warmup func() error) error {
	if warmup != nil {
		if err := warmup(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	return nil
}

// heapInUse returns the live heap in bytes after a forced GC.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

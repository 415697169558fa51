package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. xs is sorted in place. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// median is the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// supportedPercentile returns the highest of the usual reporting
// percentiles that still has at least ten samples beyond it in a sample of
// n, so a reported tail is never a single outlier. It returns 0 when even
// the median is not supported.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		rank := (n*permille + 999) / 1000 // ceil, as in percentile
		if n-rank >= 10 {
			best = float64(permille) / 10
		}
	}
	return best
}

// windows is the number of consecutive time windows a timed phase is
// split into. A window is quiet when the hypervisor took at most
// quietSteal of the machine's busy CPU time in it (steal). Metrics are
// computed over the pooled samples of the quiet windows or, when fewer
// than minWindows are quiet, of the minWindows least-stolen ones; a window
// whose steal is within stealTol of the most stolen kept one is kept too.
// So a neighbour's burst on a shared host confined to other windows does
// not move the metric, and short windows find the stretches without steal
// inside a steal episode. stealTol is under one tick of /proc/stat (1/100
// s per CPU) among the 25 to 100 busy ticks of a window: windows that
// differ by less are kept or dropped together, so with equal steal, or
// none measured, the whole phase counts, not whichever windows came first.
const (
	windows    = 60
	quietSteal = 0.02
	minWindows = 12
	stealTol   = 0.01
)

// windowed assigns each operation of a phase to a time window and marks
// the windows its metrics are computed over.
type windowed struct {
	win  []int // window of each operation
	keep [windows]bool
}

// newWindowed assigns operations by their offsets from the phase start,
// for a phase of length d, and keeps windows by their steal.
func newWindowed(offsets []time.Duration, d time.Duration, steal []float64) windowed {
	w := windowed{win: make([]int, len(offsets))}
	for i, off := range offsets {
		w.win[i] = max(0, min(windows-1, int(off*windows/d)))
	}
	sorted := slices.Clone(steal)
	slices.Sort(sorted)
	cutoff := max(quietSteal, sorted[minWindows-1]+stealTol)
	for k, s := range steal {
		w.keep[k] = s <= cutoff
	}
	return w
}

// keptWindows is the number of windows metrics are computed over.
func (w windowed) keptWindows() int {
	n := 0
	for _, k := range w.keep {
		if k {
			n++
		}
	}
	return n
}

// kept returns the indices of the operations in kept windows.
func (w windowed) kept() []int {
	var idx []int
	for i, win := range w.win {
		if w.keep[win] {
			idx = append(idx, i)
		}
	}
	return idx
}

// percentile is the p-th percentile of xs over the kept windows.
func (w windowed) percentile(xs []float64, p float64) float64 {
	var sel []float64
	for _, i := range w.kept() {
		sel = append(sel, xs[i])
	}
	return percentile(sel, p)
}

// rate is sum(num)/sum(den) over the kept windows.
func (w windowed) rate(num, den []float64) float64 {
	var n, d float64
	for _, i := range w.kept() {
		n, d = n+num[i], d+den[i]
	}
	return ratio(n, d)
}

// meterSteal samples the machine's CPU steal, as a share of its busy CPU
// time (see cpuStealTicks), over the windows of a phase of length d that
// starts at start. The returned stop ends the sampling and returns one
// share per window; a window the phase did not reach reads 1, so it is
// never among the quiet ones.
func meterSteal(start time.Time, d time.Duration) (stop func() []float64) {
	type mark struct{ steal, busy float64 }
	var marks []mark
	sample := func() {
		s, t := cpuStealTicks()
		marks = append(marks, mark{s, t})
	}
	sample()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 1; w < windows; w++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(w) * d / windows))):
				sample()
			case <-done:
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		sample()
		shares := make([]float64, windows)
		for w := range shares {
			shares[w] = 1
			if w+1 < len(marks) {
				shares[w] = ratio(marks[w+1].steal-marks[w].steal, marks[w+1].busy-marks[w].busy)
			}
		}
		return shares
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// ratio returns num/den, or 0 when den is 0 (an empty phase has no rate).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

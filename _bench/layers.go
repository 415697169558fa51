package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"blocktri/internal/comm"
	"blocktri/internal/mat"
)

// probeBudget is the wall time each per-layer probe measures for.
const probeBudget = 150 * time.Millisecond

// perCall times f in batches of k calls for about budget and returns the
// median time of one call in seconds. Batching keeps the clock's own cost
// out of sub-microsecond calls.
func perCall(budget time.Duration, k int, f func()) float64 {
	var xs []float64
	end := time.Now().Add(budget)
	for len(xs) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			f()
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(k))
	}
	return median(xs)
}

// probeMat times the dense kernels on the workload's block size m: the
// packed panel product of an m x 2m transfer operand with a 2m x 64
// panel, the same product at one column (the gemv path), and the m x m LU.
func probeMat(out map[string]float64, m int, rng *rand.Rand) error {
	const panel = 64
	a := mat.Random(m, 2*m, rng)
	pa := mat.NewPackedA(1, a)
	b := mat.Random(2*m, panel, rng)
	dst := mat.New(m, panel)
	scratch := make([]float64, mat.PackBLen(2*m, panel))
	flops := float64(2 * m * 2 * m * panel)
	t := perCall(probeBudget, 64, func() { mat.MulAddPacked(dst, pa, b, scratch) })
	out["mat.panel_gflops"] = flops / t / 1e9
	// Computed, not measured: the product's flops over the bytes of A, B
	// and the read-modify-write of the destination.
	out["mat.panel_flops_per_byte"] = flops / float64(8*(m*2*m+2*m*panel+2*m*panel))

	b1 := mat.Random(2*m, 1, rng)
	dst1 := mat.New(m, 1)
	t = perCall(probeBudget, 256, func() { mat.MulAddPacked(dst1, pa, b1, scratch) })
	out["mat.gemv_gflops"] = float64(2*m*2*m) / t / 1e9

	sq := mat.Random(m, m, rng)
	for i := 0; i < m; i++ {
		sq.AddAt(i, i, float64(m))
	}
	lu, err := mat.Factor(sq)
	if err != nil {
		return fmt.Errorf("LU probe: %w", err)
	}
	r1, x1 := mat.Random(m, 1, rng), mat.New(m, 1)
	out["mat.lu_solve_r1_us"] = 1e6 * perCall(probeBudget, 64, func() { lu.SolveTo(x1, r1) })
	r64, x64 := mat.Random(m, panel, rng), mat.New(m, panel)
	out["mat.lu_solve_r64_us"] = 1e6 * perCall(probeBudget, 8, func() { lu.SolveTo(x64, r64) })
	out["mat.lu_factor_us"] = 1e6 * perCall(probeBudget, 16, func() { _, _ = mat.Factor(sq) })
	return nil
}

// probeComm times World.Run with an empty body and one pairwise Exchange
// of floats values between ranks 0 and 1 of w.
func probeComm(out map[string]float64, w *comm.World, floats int) error {
	var runErr error
	empty := func(*comm.Comm) {}
	dispatch := perCall(probeBudget, 16, func() {
		if err := w.Run(empty); err != nil {
			runErr = err
		}
	})
	const reps = 64
	payload := make([][]float64, w.P)
	for r := range payload {
		payload[r] = make([]float64, max(floats, 1))
	}
	exchange := func(c *comm.Comm) {
		if c.Rank() > 1 {
			return
		}
		for k := 0; k < reps; k++ {
			c.Release(c.Exchange(1-c.Rank(), 7, payload[c.Rank()]))
		}
	}
	withExchanges := perCall(probeBudget, 1, func() {
		if err := w.Run(exchange); err != nil {
			runErr = err
		}
	})
	out["comm.run_dispatch_us"] = 1e6 * dispatch
	out["comm.exchange_us"] = 1e6 * max(withExchanges-dispatch, 0) / reps
	return runErr
}

// cpuSecondsOf returns the user plus system CPU time of process pid ("self" for this
// process).
func cpuSecondsOf(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// memCounters returns the Go runtime's cumulative heap allocations and GC
// cycles.
func memCounters() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

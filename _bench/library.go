package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"blocktri"
	"blocktri/internal/mat"
)

// The library workloads solve one Oscillatory system, the stable-recurrence
// family ARD targets, at the paper's amortization shape.
const (
	libN, libM, libP = 512, 16, 2
	// panelPool independent 64-column panels are cycled through; each is
	// 4 MB, well past the last-level cache.
	panelPool = 4
	// noisePool pre-generated noise vectors drive the time-step chain.
	noisePool = 64
	// setupReps set-ups are timed and their median reported.
	setupReps = 21
	// warmupOps solves grow the per-rank arenas and comm pools before
	// timing starts, as a long-running caller would have.
	warmupOps = 8
	// libLatencyLimit is the per-call latency within which a solve counts
	// towards goodput.
	libLatencyLimit = 50 * time.Millisecond
)

// libRun is the state of one library workload run.
type libRun struct {
	a      *blocktri.Matrix
	world  *blocktri.World
	solver *blocktri.ARD
	r      int
	chain  bool
	panels []*mat.Matrix // panel-r64: the RHS pool
	noise  []*mat.Matrix // timestep-r1: the chain's noise
	b, x   *mat.Matrix
	ops    int64
	// poolBytes is the size of the pre-generated right-hand-side inputs,
	// which peak_rss_mb leaves out.
	poolBytes int64
	// checked[k] identifies the last answer for pool panel k whose residual
	// was computed, with that residual.
	checked  []checkedAnswer
	hashSeed maphash.Seed
}

type checkedAnswer struct {
	done bool
	hash uint64
	rr   float64
}

// loopStats is what one timed loop measured.
type loopStats struct {
	tally tally
	// Per call, in time order: SolveTo time in ms, columns verified, and
	// 1 if the call was verified within libLatencyLimit.
	lat, okCols, inTime []float64
	// offs are the calls' start offsets and steal the steal share of each
	// time window of the loop.
	offs         []time.Duration
	steal        []float64
	timed        time.Duration
	flops        int64
	maxRankFlops int64
	msgs, bytes  int64
	maxResidual  float64
	growth       float64
	wall         time.Duration
	cpu          float64
	gcs          uint32
}

// setup builds the matrix, constructs the solver and factors, setupReps
// times, and returns each set-up's time. The last solver is kept for the
// run.
func (lr *libRun) setup(seed int64) ([]float64, error) {
	times := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		if lr.world != nil {
			lr.world.Close()
		}
		t0 := time.Now()
		lr.a = blocktri.NewOscillatory(libN, libM, rand.New(rand.NewSource(seed)))
		lr.world = blocktri.NewWorld(libP)
		lr.solver = blocktri.NewARD(lr.a, blocktri.Config{World: lr.world})
		err := lr.solver.Factor()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("factoring the %dx%d Oscillatory system: %w", libN, libM, err)
		}
		// Collect the previous set-up's garbage now, untimed, so the peak
		// RSS does not depend on when the collector happens to run.
		runtime.GC()
	}
	return times, nil
}

func runLibrary(cfg runConfig, r int, chain bool) (*result, error) {
	// The inputs are generated first, so they are resident through set-up
	// and the run alike and peak_rss_mb can leave them out exactly.
	lr := &libRun{r: r, chain: chain, hashSeed: maphash.MakeSeed()}
	rows := libN * libM
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	if chain {
		for i := 0; i < noisePool; i++ {
			lr.noise = append(lr.noise, mat.Random(rows, 1, rng))
		}
		lr.b = mat.Random(rows, 1, rng)
	} else {
		for i := 0; i < panelPool; i++ {
			lr.panels = append(lr.panels, mat.Random(rows, r, rng))
		}
	}
	for _, p := range lr.panels {
		lr.poolBytes += int64(8 * len(p.Data))
	}
	for _, p := range lr.noise {
		lr.poolBytes += int64(8 * len(p.Data))
	}
	lr.x = mat.New(rows, r)
	setups, err := lr.setup(cfg.seed)
	if lr.world != nil {
		defer lr.world.Close()
	}
	if err != nil {
		return nil, err
	}
	runtime.GC()
	for i := 0; i < warmupOps; i++ {
		if err := lr.solver.SolveTo(lr.x, lr.rhs()); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		lr.advance()
	}

	res := &result{metrics: map[string]float64{}, detail: map[string]any{}}
	if !cfg.trace {
		ls := lr.loop(cfg.seconds, nil)
		res.tally = ls.tally
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		w := newWindowed(ls.offs, cfg.seconds, ls.steal)
		res.metrics = map[string]float64{
			"setup_s":        median(slices.Clone(setups)),
			"rhs_per_s":      1e3 * w.rate(ls.okCols, ls.lat),
			"latency_p50_ms": w.percentile(ls.lat, 50),
			"latency_p99_ms": w.percentile(ls.lat, 99),
			"goodput_rps":    1e3 * w.rate(ls.inTime, ls.lat),
			"ok_share":       ratio(float64(ls.tally[causeOK]), float64(ls.tally.attempted())),
			"peak_rss_mb":    rss - float64(lr.poolBytes)/1e6,
		}
		res.detail["solves"] = len(ls.lat)
		res.detail["kept_windows"] = w.keptWindows()
		res.detail["tail_pct_supported"] = supportedPercentile(len(w.kept()))
		res.detail["window_steal_share"] = ls.steal
		res.detail["setup_s_samples"] = setups
		res.detail["max_rel_residual"] = ls.maxResidual
		res.detail["vmhwm_mb"] = rss
		res.detail["input_pool_mb"] = float64(lr.poolBytes) / 1e6
	} else {
		if err := lr.traced(cfg, res); err != nil {
			return nil, err
		}
	}
	res.correct = res.tally.failed() == 0
	res.detail["shape"] = fmt.Sprintf("N=%d M=%d P=%d R=%d", libN, libM, libP, r)
	return res, nil
}

// rhs returns the right-hand side of the next solve.
func (lr *libRun) rhs() *mat.Matrix {
	if lr.chain {
		return lr.b
	}
	return lr.panels[lr.ops%int64(len(lr.panels))]
}

// advance moves to the next operation. On the time-step chain the next
// right-hand side is the last solution, rescaled to unit max-norm so the
// chain neither overflows nor underflows, plus 0.01 times the next
// pre-generated noise vector.
func (lr *libRun) advance() {
	if lr.chain {
		scale := 0.0
		for _, v := range lr.x.Data {
			scale = math.Max(scale, math.Abs(v))
		}
		if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		noise := lr.noise[lr.ops%int64(len(lr.noise))]
		for i, v := range lr.x.Data {
			lr.b.Data[i] = v/scale + 0.01*noise.Data[i]
		}
	}
	lr.ops++
}

// loop runs closed-loop solves for d. Each SolveTo is timed on its own;
// the residual check and the next right-hand side are computed outside
// that span. With a tracer, every operation records a root span with the
// solve and the check as children.
func (lr *libRun) loop(d time.Duration, tr *tracer) loopStats {
	var ls loopStats
	_, gc0 := memCounters()
	cpu0 := cpuSecondsOf("self")
	start := time.Now()
	stopSteal := meterSteal(start, d)
	for end := start.Add(d); time.Now().Before(end); {
		b := lr.rhs()
		t0 := time.Now()
		ls.offs = append(ls.offs, t0.Sub(start))
		err := lr.solver.SolveTo(lr.x, b)
		t1 := time.Now()
		dt := t1.Sub(t0)
		ls.timed += dt
		ls.lat = append(ls.lat, ms(dt))
		c := causeOK
		if err != nil {
			c = causeError
		} else {
			rr := lr.residual(b)
			ls.maxResidual = math.Max(ls.maxResidual, rr)
			if !residualOK(rr) {
				c = causeWrong
			}
			st := lr.solver.Stats()
			ls.flops += st.Flops
			ls.maxRankFlops += st.MaxRankFlops
			ls.msgs += st.Comm.MsgsSent
			ls.bytes += st.Comm.BytesSent
			ls.growth = st.PrefixGrowth
		}
		ls.tally.add(c)
		okCols, inTime := 0.0, 0.0
		if c == causeOK {
			okCols = float64(lr.r)
			if dt <= libLatencyLimit {
				inTime = 1
			}
		}
		ls.okCols = append(ls.okCols, okCols)
		ls.inTime = append(ls.inTime, inTime)
		if tr != nil {
			root := tr.add("bench.op", -1, lr.ops, t0, time.Now())
			tr.add("core.SolveTo", root, lr.ops, t0, t1)
			tr.add("bench.verify", root, lr.ops, t1, time.Now())
		}
		lr.advance()
	}
	ls.wall = time.Since(start)
	ls.steal = stopSteal()
	ls.cpu = cpuSecondsOf("self") - cpu0
	_, gc1 := memCounters()
	ls.gcs = gc1 - gc0
	return ls
}

// residual returns the relative residual of the current answer for b. On
// the panel pool, an answer whose 64-bit hash equals that of the last
// answer checked for the same panel is taken to be that answer and has its
// residual; any other answer is checked in full.
func (lr *libRun) residual(b *mat.Matrix) float64 {
	if lr.chain {
		return relResidual(lr.a, lr.x, b)
	}
	if lr.checked == nil {
		lr.checked = make([]checkedAnswer, len(lr.panels))
	}
	c := &lr.checked[lr.ops%int64(len(lr.panels))]
	h := maphash.Bytes(lr.hashSeed, unsafe.Slice((*byte)(unsafe.Pointer(&lr.x.Data[0])), 8*len(lr.x.Data)))
	if c.done && c.hash == h {
		return c.rr
	}
	c.done, c.hash, c.rr = true, h, relResidual(lr.a, lr.x, b)
	return c.rr
}

// traced fills res with the per-layer metrics: half the time untraced and
// half traced (their difference is the tracing overhead), then probes of
// the core, comm and mat layers on the workload's shapes.
func (lr *libRun) traced(cfg runConfig, res *result) error {
	plain := lr.loop(cfg.seconds/2, nil)
	tr := newTracer()
	ls := lr.loop(cfg.seconds/2, tr)
	res.tally = ls.tally
	m := res.metrics
	n := float64(len(ls.lat))
	plainP50 := percentile(plain.lat, 50)
	m["bench.trace_overhead_pct"] = 100 * ratio(percentile(ls.lat, 50)-plainP50, plainP50)
	m["core.solve_gflops"] = ratio(float64(ls.flops), ls.timed.Seconds()) / 1e9
	m["core.solve_p99_ms"] = percentile(ls.lat, 99)
	m["core.rank_imbalance"] = ratio(float64(ls.maxRankFlops*libP), float64(ls.flops))
	m["core.stored_mb"] = float64(lr.solver.FactorStats().StoredBytes) / 1e6
	m["core.prefix_growth"] = ls.growth
	m["core.max_rel_residual"] = ls.maxResidual
	m["comm.msgs_per_solve"] = ratio(float64(ls.msgs), n)
	m["comm.kb_per_solve"] = ratio(float64(ls.bytes), n) / 1024
	m["runtime.gc_cycles"] = float64(ls.gcs)
	m["runtime.cpu_util"] = ratio(ls.cpu, ls.wall.Seconds())

	// Allocations of the solve alone, without the residual check.
	const allocOps = 32
	m0, _ := memCounters()
	for i := 0; i < allocOps; i++ {
		if err := lr.solver.SolveTo(lr.x, lr.rhs()); err != nil {
			return fmt.Errorf("allocation probe: %w", err)
		}
	}
	m1, _ := memCounters()
	m["runtime.allocs_per_op"] = float64(m1-m0) / allocOps

	// Factor on fresh solvers sharing the world.
	var fms, fgf []float64
	for i := 0; i < setupReps; i++ {
		s := blocktri.NewARD(lr.a, blocktri.Config{World: lr.world})
		t0 := time.Now()
		if err := s.Factor(); err != nil {
			return fmt.Errorf("factor probe: %w", err)
		}
		wall := time.Since(t0)
		tr.add("core.Factor", -1, -1, t0, t0.Add(wall))
		fms = append(fms, ms(wall))
		fgf = append(fgf, float64(s.FactorStats().Flops)/wall.Seconds()/1e9)
	}
	m["core.factor_ms"], m["core.factor_gflops"] = median(fms), median(fgf)

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x1a7e))
	if err := probeMat(m, libM, rng); err != nil {
		return err
	}
	floats := int(ratio(float64(ls.bytes), float64(ls.msgs)) / 8)
	if err := probeComm(m, lr.world, floats); err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	res.notApplicable = zeroMetrics(m, "http.", "serve.", "bench.gen_lag")
	path, err := tr.write(outDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	res.detail["trace_file"] = path
	res.detail["self_ms"] = tr.selfMs()
	res.detail["solves"] = len(ls.lat)
	return nil
}

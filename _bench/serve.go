package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	iblocktri "blocktri/internal/blocktri"
	"blocktri/internal/comm"
	"blocktri/internal/core"
	"blocktri/internal/mat"
	"blocktri/internal/serve"
)

// serve-mixed traffic. Every system has N=64 block rows of 8x8 blocks, the
// shape of a warm single-column HTTP solve.
const (
	setN, setM = 64, 8
	serveP     = 2
	tenants    = 4
	// cacheMB holds about a third of the registered set's factors (each
	// about 0.27 MB of factor plus matrix). It is fixed so that smaller
	// factors show up as a higher hit ratio.
	cacheMB = 2
	// rhsPoolCols pre-generated columns are shared by all requests.
	rhsPoolCols = 256
	// inlineShare of requests carry a never-seen inline matrix, drawn from
	// the families whose generator draws distinct matrices.
	inlineShare = 0.02
	// multiShare of requests carry 2..maxCols columns, each count equally
	// often; the rest carry one. "A few" multi-column requests is taken as
	// one in ten.
	multiShare = 0.1
	maxCols    = 8
	// nominalRate is the fixed arrival rate of the latency phase, a third
	// to a half of the service's capacity (700 to 1000/s on a shared 2-CPU
	// host); nearer capacity, queueing amplifies the host's own noise.
	nominalRate = 300.0
	// latencyLimit is the p99 limit of goodput and of the rate ladder.
	latencyLimit = 50 * time.Millisecond
	// maxConns is the number of client connections, at most nproc.
	maxConns    = 2
	serveSetups = 5
	warmupDur   = time.Second
	// The rate ladder is every multiple of ladderStep from ladderBase, the
	// nominal rate, up to ladderTop, per second.
	ladderBase, ladderStep, ladderTop = 300, 25, 3100
	// ladderStride rungs are skipped per step until a rung fails; the
	// search then bisects between the last rung passed and that one.
	ladderStride = 8
	// rungDur holds about 1200 requests near capacity, so each rung's
	// p99 has about 12 samples beyond it.
	rungDur = 1500 * time.Millisecond
)

// family is one generator family of the registered set. growthProne
// marks the families on which serve's hardwired ARD returns inaccurate
// answers at this shape (ROADMAP item 1); requests to them are kept and
// counted as failures.
type family struct {
	name        string
	growthProne bool
	// oneOff reports that gen draws distinct matrices, so the family can
	// supply never-seen inline systems and more than one registered one.
	oneOff bool
	gen    func(rng *rand.Rand) *iblocktri.Matrix
}

var families = []family{
	{"oscillatory", false, true, func(rng *rand.Rand) *iblocktri.Matrix {
		return iblocktri.Oscillatory(setN, setM, rng)
	}},
	{"anisotropic", false, true, func(rng *rand.Rand) *iblocktri.Matrix {
		return iblocktri.AnisotropicDiffusion(setM, setN, 0.002+0.008*rng.Float64())
	}},
	{"poisson2d", true, false, func(*rand.Rand) *iblocktri.Matrix {
		return iblocktri.Poisson2D(setM, setN)
	}},
	{"convection", true, true, func(rng *rand.Rand) *iblocktri.Matrix {
		return iblocktri.ConvectionDiffusion(setM, setN, 0.2+1.6*rng.Float64())
	}},
	{"toeplitz", true, true, func(rng *rand.Rand) *iblocktri.Matrix {
		return iblocktri.BlockToeplitz(setN, setM, rng)
	}},
	{"diagdominant", true, true, func(rng *rand.Rand) *iblocktri.Matrix {
		return iblocktri.RandomDiagDominant(setN, setM, rng)
	}},
}

// The registered set has setSize systems with Zipf popularity over the
// whole set: the system of popularity rank r (from 1) draws weight 1/r.
// The families ARD is accurate on take the head ranks, alternating, and
// the growth-prone ones the growthRanks tail ranks, in turn. growthRanks
// is the count that puts the growth-prone share of registered traffic
// nearest one in six: (H(24) - H(13)) / H(24) = 15.8%.
const (
	setSize     = 24
	growthRanks = 11
)

// rankFamilies returns the family of each popularity rank of the set, most
// popular first. A family whose generator draws only one matrix takes a
// single rank.
func rankFamilies() []int {
	var stable, prone []int
	for i, f := range families {
		if f.growthProne {
			prone = append(prone, i)
		} else {
			stable = append(stable, i)
		}
	}
	out := make([]int, 0, setSize)
	for r := 0; r < setSize-growthRanks; r++ {
		out = append(out, stable[r%len(stable)])
	}
	used := make([]bool, len(families))
	for k := 0; len(out) < setSize; k++ {
		fi := prone[k%len(prone)]
		if used[fi] && !families[fi].oneOff {
			continue
		}
		used[fi] = true
		out = append(out, fi)
	}
	return out
}

// setMatrix is one registered system.
type setMatrix struct {
	id     string
	family int
	a      *iblocktri.Matrix
	body   []byte // registration request
}

// reqSpec is one generated request: who sends it, against which system
// (matrix < 0 means the inline one), and which pool columns form b.
type reqSpec struct {
	tenant, family, matrix int
	inline                 *iblocktri.Matrix
	cols, rhsOff           int
}

// traffic is the registered set and the right-hand-side pool. Phases draw
// their arrivals and requests from it through plan.
type traffic struct {
	seed    int64
	set     []setMatrix
	pool    [][]float64 // rhsPoolCols columns of setN*setM rows
	poolRaw [][]byte    // the pool's columns as JSON arrays
}

type phasePlan struct {
	dur   time.Duration
	due   []time.Duration
	specs []reqSpec
}

func genTraffic(seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{seed: seed}
	for r, fi := range rankFamilies() {
		a := families[fi].gen(rng)
		body, err := json.Marshal(toWire(a))
		if err != nil {
			return nil, fmt.Errorf("encoding matrix: %w", err)
		}
		t.set = append(t.set, setMatrix{id: fmt.Sprintf("r%02d-%s", r+1, families[fi].name), family: fi, a: a, body: body})
	}
	rows := setN * setM
	for j := 0; j < rhsPoolCols; j++ {
		col := make([]float64, rows)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		raw, err := json.Marshal(col)
		if err != nil {
			return nil, fmt.Errorf("encoding right-hand side: %w", err)
		}
		t.pool, t.poolRaw = append(t.pool, col), append(t.poolRaw, raw)
	}
	return t, nil
}

// plan generates a phase's Poisson arrivals and requests at rate per
// second for d. Each phase has its own stream derived from the seed, so a
// phase's inputs do not depend on which phases ran before it; it is called
// before the phase's timing starts.
func (t *traffic) plan(stream int64, rate float64, d time.Duration) phasePlan {
	rng := rand.New(rand.NewSource(t.seed*1_000_003 + stream))
	due := poissonSchedule(rng, rate, d)
	return phasePlan{dur: d, due: due, specs: genSpecs(rng, t.set, len(due))}
}

// Streams of the fixed phases; ladder rungs use their rate.
const (
	streamWarmup  = -1
	streamNominal = -2
	streamTraced  = -3
)

// apportion splits n into parts proportional to weights by the largest
// remainder method, so the parts sum to n exactly.
func apportion(n int, weights []float64) []int {
	total := sum(weights)
	parts := make([]int, len(weights))
	rems := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		parts[i] = int(exact)
		rems[i] = exact - float64(parts[i])
		left -= parts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
	for _, i := range order[:left] {
		parts[i]++
	}
	return parts
}

// mixBlock is the number of consecutive requests over which genSpecs
// makes the traffic mix exact.
const mixBlock = 500

// genSpecs generates n requests in consecutive blocks of mixBlock. Each
// block's composition is exact: the shares of inline matrices,
// multi-column requests and each registered system's Zipf weight are
// apportioned to the block's size, and only their order, tenants and
// right-hand sides are drawn at random. Seeds then differ in the order of
// arrivals, not in how many slow requests they happened to draw, and every
// stretch of a phase sees the same mix. Inline matrices come from the
// families that draw distinct matrices, in proportion to the Zipf weight
// of their registered systems.
func genSpecs(rng *rand.Rand, set []setMatrix, n int) []reqSpec {
	zipf, inlineWeights := make([]float64, len(set)), make([]float64, len(families))
	for i, sm := range set {
		zipf[i] = 1 / float64(i+1)
		if families[sm.family].oneOff {
			inlineWeights[sm.family] += zipf[i]
		}
	}
	specs := make([]reqSpec, n)
	for lo := 0; lo < n; lo += mixBlock {
		block := specs[lo:min(lo+mixBlock, n)]
		k := len(block)
		nInline := int(math.Round(inlineShare * float64(k)))
		targets := make([]reqSpec, 0, k)
		for i, c := range apportion(k-nInline, zipf) {
			for j := 0; j < c; j++ {
				targets = append(targets, reqSpec{family: set[i].family, matrix: i})
			}
		}
		for fi, c := range apportion(nInline, inlineWeights) {
			for j := 0; j < c; j++ {
				targets = append(targets, reqSpec{family: fi, matrix: -1, inline: families[fi].gen(rng)})
			}
		}
		rng.Shuffle(k, func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		cols := make([]int, k)
		nMulti := int(math.Round(multiShare * float64(k)))
		for i := range cols {
			cols[i] = 1
			if i < nMulti {
				cols[i] = 2 + i%(maxCols-1)
			}
		}
		rng.Shuffle(k, func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		for i := range block {
			block[i] = targets[i]
			block[i].cols = cols[i]
			block[i].tenant = rng.Intn(tenants)
			block[i].rhsOff = rng.Intn(rhsPoolCols)
		}
	}
	return specs
}

// matrixWire is blocktri-serve's JSON form of a matrix.
type matrixWire struct {
	N     int         `json:"n"`
	M     int         `json:"m"`
	Lower [][]float64 `json:"lower"`
	Diag  [][]float64 `json:"diag"`
	Upper [][]float64 `json:"upper"`
}

func toWire(a *iblocktri.Matrix) *matrixWire {
	w := &matrixWire{N: a.N, M: a.M}
	flat := func(b *mat.Matrix) []float64 { return append([]float64(nil), b.Data[:a.M*a.M]...) }
	for i := 0; i < a.N; i++ {
		w.Diag = append(w.Diag, flat(a.Diag[i]))
		if i > 0 {
			w.Lower = append(w.Lower, flat(a.Lower[i]))
		}
		if i < a.N-1 {
			w.Upper = append(w.Upper, flat(a.Upper[i]))
		}
	}
	return w
}

// solveHead is blocktri-serve's JSON form of a solve request without its
// right-hand side b, which requestBody appends.
type solveHead struct {
	Tenant   string      `json:"tenant"`
	MatrixID string      `json:"matrix_id,omitempty"`
	Matrix   *matrixWire `json:"matrix,omitempty"`
}

// columns returns the request's right-hand-side columns from the pool.
func (t *traffic) columns(s reqSpec) [][]float64 {
	cols := make([][]float64, s.cols)
	for j := range cols {
		cols[j] = t.pool[(s.rhsOff+j)%rhsPoolCols]
	}
	return cols
}

// rhs returns the request's right-hand side as a rows x cols panel.
func (t *traffic) rhs(s reqSpec) *mat.Matrix {
	rows := setN * setM
	b := mat.New(rows, s.cols)
	for j, col := range t.columns(s) {
		for i, v := range col {
			b.Data[i*b.Stride+j] = v
		}
	}
	return b
}

func (t *traffic) matrix(s reqSpec) *iblocktri.Matrix {
	if s.matrix < 0 {
		return s.inline
	}
	return t.set[s.matrix].a
}

// requestBody is a solve request's JSON body without its right-hand
// side: head names the tenant and the system and ends where the columns of
// b begin. The columns are copied in from the pool's pre-encoded JSON when
// the request is sent, so a phase holds no copy of every body.
type requestBody struct {
	head []byte
	spec reqSpec
	size int
}

// encodeRequests encodes the heads of a phase's requests, inline matrices
// included; it runs before the phase is timed.
func (t *traffic) encodeRequests(specs []reqSpec) ([]requestBody, error) {
	out := make([]requestBody, len(specs))
	for i, s := range specs {
		req := solveHead{Tenant: "tenant-" + strconv.Itoa(s.tenant)}
		if s.matrix < 0 {
			req.Matrix = toWire(s.inline)
		} else {
			req.MatrixID = t.set[s.matrix].id
		}
		head, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encoding request: %w", err)
		}
		head = append(bytes.TrimSuffix(head, []byte("}")), `,"b":[`...)
		rb := requestBody{head: head, spec: s, size: len(head) + s.cols - 1 + len("]}")}
		for j := 0; j < s.cols; j++ {
			rb.size += len(t.poolRaw[(s.rhsOff+j)%rhsPoolCols])
		}
		out[i] = rb
	}
	return out, nil
}

// body assembles a request's full JSON body.
func (t *traffic) body(rb requestBody) []byte {
	buf := make([]byte, 0, rb.size)
	buf = append(buf, rb.head...)
	for j := 0; j < rb.spec.cols; j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, t.poolRaw[(rb.spec.rhsOff+j)%rhsPoolCols]...)
	}
	return append(buf, "]}"...)
}

// serveProc is a running blocktri-serve.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func serveFlags() []string {
	return []string{"-p", strconv.Itoa(serveP), "-workers", "1", "-cache-mb", strconv.Itoa(cacheMB),
		"-queue", "256", "-max-panel", "256"}
}

// startServe starts the binary on a free loopback port, waits for
// /healthz, registers the set and returns the elapsed time.
func startServe(bin string, seed int64, set []setMatrix) (*serveProc, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := append(serveFlags(), "-seed", strconv.FormatInt(seed, 10), "-addr", addr)
	start := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	sp := &serveProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { sp.done <- cmd.Wait() }()
	if err := sp.ready(set); err != nil {
		sp.stop()
		return nil, 0, err
	}
	return sp, time.Since(start), nil
}

func (sp *serveProc) ready(set []setMatrix) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(sp.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-sp.done:
			sp.done <- err
			return fmt.Errorf("blocktri-serve exited before answering /healthz: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("blocktri-serve did not answer /healthz within 20s")
		}
	}
	for _, m := range set {
		resp, err := client.Post(sp.base+"/v1/matrices/"+m.id, "application/json", bytes.NewReader(m.body))
		if err != nil {
			return fmt.Errorf("registering %s: %w", m.id, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; the status decides
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("registering %s: status %d", m.id, resp.StatusCode)
		}
	}
	return nil
}

// stop interrupts the server so it drains, kills it if it has not exited
// within 10s, and waits for it.
func (sp *serveProc) stop() {
	_ = sp.cmd.Process.Signal(os.Interrupt) // fails only if it already exited; Wait below settles it
	select {
	case <-sp.done:
	case <-time.After(10 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-sp.done
	}
}

func (sp *serveProc) pid() string { return strconv.Itoa(sp.cmd.Process.Pid) }

// stats fetches /v1/stats as a name -> counter map.
func (sp *serveProc) stats() (map[string]float64, error) {
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(sp.base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("fetching stats: %w", err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding stats: %w", err)
	}
	return m, nil
}

// outcome is what verification learned about one request.
type outcome struct {
	cause     cause
	warm      bool
	wallNs    int64
	reqBytes  int
	respBytes int
}

// phaseResult is one open-loop phase against the service.
type phaseResult struct {
	plan  phasePlan
	start time.Time
	times []opTimes
	outs  []outcome
	tally tally
	steal []float64 // steal share of each time window
	// failuresOnStable counts failures on requests to families the
	// service is expected to answer correctly.
	failuresOnStable int64
}

// httpPhase sends a phase's requests over maxConns keep-alive connections
// and, once the phase is over, verifies every reply.
func (t *traffic) httpPhase(sp *serveProc, plan phasePlan, tr *tracer) (*phaseResult, error) {
	bodies, err := t.encodeRequests(plan.specs)
	if err != nil {
		return nil, err
	}
	clients := make([]*http.Client, maxConns)
	for i := range clients {
		clients[i] = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	pr := &phaseResult{plan: plan, outs: make([]outcome, len(bodies))}
	statuses := make([]int, len(bodies))
	replies := make([][]byte, len(bodies))
	url := sp.base + "/v1/solve"
	stopSteal := meterSteal(time.Now(), plan.dur)
	pr.times, pr.start = runOpenLoop(plan.due, maxConns, func(w, i int) {
		resp, err := clients[w].Post(url, "application/json", bytes.NewReader(t.body(bodies[i])))
		if err != nil {
			return // status 0: a transport error
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			statuses[i], replies[i] = resp.StatusCode, body
		}
	})
	pr.steal = stopSteal()
	for i, spec := range plan.specs {
		o := outcome{reqBytes: bodies[i].size, respBytes: len(replies[i])}
		resp, x, c := decodeSolve(statuses[i], replies[i], setN*setM, spec.cols)
		if c == causeOK {
			o.warm, o.wallNs = resp.Warm, resp.WallNs
			if !residualOK(relResidual(t.matrix(spec), x, t.rhs(spec))) {
				c = causeWrong
			}
		}
		o.cause = c
		pr.outs[i] = o
		replies[i] = nil
	}
	for i, o := range pr.outs {
		pr.tally.add(o.cause)
		if o.cause != causeOK && !families[plan.specs[i].family].growthProne {
			pr.failuresOnStable++
		}
		if tr != nil {
			tm := pr.times[i]
			at := func(d time.Duration) time.Time { return pr.start.Add(d) }
			req := int64(i)
			root := tr.add("client.request", -1, req, at(tm.due), at(tm.done))
			tr.add("client.queue", root, req, at(tm.due), at(tm.sent))
			rt := tr.add("http.roundtrip", root, req, at(tm.sent), at(tm.done))
			if o.wallNs > 0 {
				// The service reports only its duration, so the span is
				// placed to end when the reply had been read.
				tr.add("serve.service", rt, req, at(tm.done-time.Duration(o.wallNs)), at(tm.done))
			}
		}
	}
	return pr, nil
}

// nominalMetrics are the end-to-end numbers of the fixed-rate phase, with
// the windows its latencies are computed over.
func nominalMetrics(pr *phaseResult, d time.Duration) (map[string]float64, windowed) {
	lat := make([]float64, len(pr.times))
	due := make([]time.Duration, len(pr.times))
	var inTime, cols int64
	for i, tm := range pr.times {
		lat[i], due[i] = ms(tm.latency()), tm.due
		if pr.outs[i].cause == causeOK {
			cols += int64(pr.plan.specs[i].cols)
			if tm.latency() <= latencyLimit {
				inTime++
			}
		}
	}
	w := newWindowed(due, d, pr.steal)
	return map[string]float64{
		"latency_p50_ms": w.percentile(lat, 50),
		"latency_p99_ms": w.percentile(lat, 99),
		"goodput_rps":    ratio(float64(inTime), d.Seconds()),
		"rhs_per_s":      ratio(float64(cols), d.Seconds()),
		"ok_share":       ratio(float64(pr.tally[causeOK]), float64(pr.tally.attempted())),
	}, w
}

func runServeMixed(cfg runConfig) (*result, error) {
	if cfg.serveBin == "" {
		return nil, errors.New("serve-mixed needs -serve-bin")
	}
	// Four fifths of the run give the p99 over even the fewest windows
	// kept, a fifth of them, about 14 samples beyond it; the rate ladder
	// takes about half as long again.
	nominalDur := cfg.seconds * 4 / 5
	if cfg.trace {
		nominalDur = cfg.seconds / 4
	}
	t, err := genTraffic(cfg.seed)
	if err != nil {
		return nil, err
	}
	warmup, nominal := t.plan(streamWarmup, nominalRate, warmupDur), t.plan(streamNominal, nominalRate, nominalDur)
	res := &result{metrics: map[string]float64{}, detail: map[string]any{}}

	var sp *serveProc
	var setups []float64
	for k := 0; k < serveSetups; k++ {
		if sp != nil {
			sp.stop()
		}
		var d time.Duration
		sp, d, err = startServe(cfg.serveBin, cfg.seed, t.set)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer sp.stop()

	if _, err := t.httpPhase(sp, warmup, nil); err != nil {
		return nil, err
	}
	if cfg.trace {
		return res, t.tracedServe(cfg, sp, res, nominal)
	}

	nom, err := t.httpPhase(sp, nominal, nil)
	if err != nil {
		return nil, err
	}
	res.tally = nom.tally
	res.correct = nom.failuresOnStable == 0
	var w windowed
	res.metrics, w = nominalMetrics(nom, nominalDur)
	res.detail["kept_windows"] = w.keptWindows()
	res.metrics["setup_s"] = median(slices.Clone(setups))
	res.detail["nominal"] = summarize(nom.times)
	res.detail["window_steal_share"] = nom.steal
	res.detail["failures_on_stable_families"] = nom.failuresOnStable

	best, rungs, err := t.climbLadder(sp)
	if err != nil {
		return nil, err
	}
	// Reported, not gated: on a shared 2-CPU host the capacity itself moved
	// by more than a third from run to run of the same code.
	res.detail["max_rps_at_slo"] = best
	res.detail["ladder"] = rungs
	rss, err := peakRSSMB(sp.pid())
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = rss
	if self, err := peakRSSMB("self"); err == nil {
		res.detail["client_vmhwm_mb"] = self
	}
	res.detail["setup_s_samples"] = setups
	res.detail["latency_limit_ms"] = ms(latencyLimit)
	res.detail["nominal_rate"] = nominalRate
	return res, nil
}

// climbLadder finds the highest ladder rate at which p99 latency stays
// within latencyLimit, the client backlog does not grow and at most 1% of
// requests are refused. It strides up the ladder until a rung fails, then
// bisects between the last rung passed and the failed one. It returns the
// completion rate measured on the highest rung passed, or 0 when even the
// lowest rung fails.
func (t *traffic) climbLadder(sp *serveProc) (float64, []map[string]any, error) {
	var rungs []map[string]any
	best := 0.0
	// pass measures rung k and, if it passes, records its completion rate
	// in best: rungs are only tried above the highest one passed.
	pass := func(k int) (bool, error) {
		rate := float64(ladderBase + k*ladderStep)
		pr, err := t.httpPhase(sp, t.plan(int64(rate), rate, rungDur), nil)
		if err != nil {
			return false, err
		}
		s := summarize(pr.times)
		refused := pr.tally[causeError] + pr.tally[causeUndecodable]
		ok := s.P99ms <= ms(latencyLimit) && !s.BacklogGrew && float64(refused) <= 0.01*float64(s.N)
		rungs = append(rungs, map[string]any{"rate": rate, "summary": s, "refused": refused, "pass": ok})
		if ok {
			best = s.DoneRate
		}
		return ok, nil
	}
	top := (ladderTop - ladderBase) / ladderStep
	lo, hi := -1, top+1 // highest rung passed, lowest rung failed
	for k := 0; k <= top; k += ladderStride {
		ok, err := pass(k)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			hi = k
			break
		}
		lo = k
	}
	for lo >= 0 && hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, rungs, nil
}

// tracedServe measures the per-layer metrics: an untraced and a traced
// pass of nominal traffic over HTTP (their difference is the tracing
// overhead, the traced one also gives the /v1/stats deltas), an in-process
// replay of the traced pass's traffic through serve.Server.Submit, and
// probes of the core, comm and mat layers on the registered set. Each pass
// has its own requests, so inline matrices are never seen twice.
func (t *traffic) tracedServe(cfg runConfig, sp *serveProc, res *result, plain phasePlan) error {
	m := res.metrics
	d := cfg.seconds / 4
	traced := t.plan(streamTraced, nominalRate, d)
	plainRes, err := t.httpPhase(sp, plain, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	before, err := sp.stats()
	if err != nil {
		return err
	}
	cpu0, wall0 := cpuSecondsOf(sp.pid()), time.Now()
	pr, err := t.httpPhase(sp, traced, tr)
	if err != nil {
		return err
	}
	cpu := cpuSecondsOf(sp.pid()) - cpu0
	wall := time.Since(wall0)
	after, err := sp.stats()
	if err != nil {
		return err
	}
	res.tally = pr.tally
	res.correct = pr.failuresOnStable == 0
	delta := func(k string) float64 { return after[k] - before[k] }

	plainM, _ := nominalMetrics(plainRes, d)
	tracedM, _ := nominalMetrics(pr, d)
	plainP50 := plainM["latency_p50_ms"]
	m["bench.trace_overhead_pct"] = 100 * ratio(tracedM["latency_p50_ms"]-plainP50, plainP50)
	var over, warm, cold, inline, lag []float64
	var reqB, respB float64
	for i, o := range pr.outs {
		tm := pr.times[i]
		reqB += float64(o.reqBytes)
		respB += float64(o.respBytes)
		lag = append(lag, ms(tm.genLag()))
		if pr.plan.specs[i].matrix < 0 {
			inline = append(inline, ms(tm.latency()))
		}
		if o.wallNs > 0 {
			over = append(over, ms(tm.done-tm.sent-time.Duration(o.wallNs)))
			if o.warm {
				warm = append(warm, float64(o.wallNs)/1e6)
			} else {
				cold = append(cold, float64(o.wallNs)/1e6)
			}
		}
	}
	n := float64(len(pr.outs))
	m["http.overhead_p50_ms"] = percentile(over, 50)
	m["http.overhead_p99_ms"] = percentile(over, 99)
	m["http.req_kb"] = ratio(reqB, n) / 1024
	m["http.resp_kb"] = ratio(respB, n) / 1024
	m["http.inline_p50_ms"] = percentile(inline, 50)
	m["serve.service_warm_p50_ms"] = percentile(warm, 50)
	m["serve.service_cold_p50_ms"] = percentile(cold, 50)
	lookups := delta("FactorHits") + delta("Factorizations") + delta("InflightJoins")
	m["serve.factor_hit_ratio"] = ratio(delta("FactorHits"), lookups)
	m["serve.evictions"] = delta("Evictions")
	batches := delta("Solved") - delta("CoalescedJobs")
	m["serve.jobs_per_panel"] = ratio(delta("Solved"), batches)
	m["serve.shed"] = delta("Shed")
	m["serve.expired"] = delta("Expired")
	m["serve.retries"] = delta("Retries")
	m["runtime.cpu_util"] = ratio(cpu, wall.Seconds())
	m["bench.gen_lag_p99_ms"] = percentile(lag, 99)

	if err := t.replay(cfg, m, tr, traced); err != nil {
		return err
	}
	if err := t.probeCore(m, tr); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x1a7e))
	if err := probeMat(m, setM, rng); err != nil {
		return err
	}
	w := comm.NewWorld(serveP)
	defer w.Close()
	floats := int(ratio(m["comm.kb_per_solve"]*1024, m["comm.msgs_per_solve"]) / 8)
	if err := probeComm(m, w, floats); err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	path, err := tr.write(outDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	res.detail["trace_file"] = path
	res.detail["self_ms"] = tr.selfMs()
	res.detail["requests"] = len(pr.outs)
	res.detail["failures_on_stable_families"] = pr.failuresOnStable
	return nil
}

// replay runs a phase's traffic through an in-process serve.Server with
// the same configuration, timing Submit; queue wait is Submit's duration
// minus the batch service time it reports.
func (t *traffic) replay(cfg runConfig, m map[string]float64, tr *tracer, plan phasePlan) error {
	srv := serve.New(serve.Config{Workers: 1, P: serveP, CacheBytes: cacheMB << 20, QueueDepth: 256, MaxPanel: 256, Seed: cfg.seed})
	defer srv.Close()
	for _, sm := range t.set {
		if err := srv.Register(sm.id, sm.a); err != nil {
			return fmt.Errorf("registering %s in process: %w", sm.id, err)
		}
	}
	run := func(plan phasePlan, tr *tracer) ([]opTimes, []time.Duration, time.Time) {
		jobs := make([]serve.Job, len(plan.specs))
		for i, s := range plan.specs {
			jobs[i] = serve.Job{Tenant: "tenant-" + strconv.Itoa(s.tenant), B: t.rhs(s)}
			if s.matrix < 0 {
				jobs[i].Matrix = s.inline
			} else {
				jobs[i].MatrixID = t.set[s.matrix].id
			}
		}
		walls := make([]time.Duration, len(jobs))
		times, start := runOpenLoop(plan.due, maxConns, func(_, i int) {
			if r, err := srv.Submit(context.Background(), jobs[i]); err == nil {
				walls[i] = r.Wall
			}
		})
		for i, tm := range times {
			if tr != nil && walls[i] > 0 {
				id := tr.add("serve.Submit", -1, -1-int64(i), start.Add(tm.sent), start.Add(tm.done))
				tr.add("serve.batch", id, -1-int64(i), start.Add(tm.done-walls[i]), start.Add(tm.done))
			}
		}
		return times, walls, start
	}
	run(t.plan(streamWarmup, nominalRate, warmupDur), nil)
	m0, gc0 := memCounters()
	times, walls, _ := run(plan, tr)
	m1, gc1 := memCounters()
	var submit, wait []float64
	for i, tm := range times {
		if walls[i] > 0 {
			submit = append(submit, ms(tm.done-tm.sent))
			wait = append(wait, ms(tm.done-tm.sent-walls[i]))
		}
	}
	m["serve.submit_p50_ms"] = percentile(submit, 50)
	m["serve.queue_wait_p50_ms"] = percentile(wait, 50)
	m["runtime.allocs_per_op"] = ratio(float64(m1-m0), float64(len(times)))
	m["runtime.gc_cycles"] = float64(gc1 - gc0)
	return nil
}

// probeCore factors every registered matrix on a fresh ARD solver and
// solves one column against it, as the service does on a cache miss.
func (t *traffic) probeCore(m map[string]float64, tr *tracer) error {
	w := comm.NewWorld(serveP)
	defer w.Close()
	var fms, fgf, sms []float64
	var flops, maxRank, msgs, bytes int64
	var stored, growth, worst float64
	b := t.rhs(reqSpec{cols: 1})
	x := mat.New(b.Rows, 1)
	for _, sm := range t.set {
		s := core.NewARD(sm.a, core.Config{World: w})
		t0 := time.Now()
		if err := s.Factor(); err != nil {
			return fmt.Errorf("factoring %s: %w", sm.id, err)
		}
		fw := time.Since(t0)
		tr.add("core.Factor", -1, -1, t0, t0.Add(fw))
		fms = append(fms, ms(fw))
		fgf = append(fgf, float64(s.FactorStats().Flops)/fw.Seconds()/1e9)
		stored += float64(s.FactorStats().StoredBytes)
		for k := 0; k < 8; k++ {
			t1 := time.Now()
			if err := s.SolveTo(x, b); err != nil {
				return fmt.Errorf("solving %s: %w", sm.id, err)
			}
			sw := time.Since(t1)
			tr.add("core.SolveTo", -1, -1, t1, t1.Add(sw))
			sms = append(sms, ms(sw))
			st := s.Stats()
			flops += st.Flops
			maxRank += st.MaxRankFlops
			msgs += st.Comm.MsgsSent
			bytes += st.Comm.BytesSent
			growth = math.Max(growth, st.PrefixGrowth)
		}
		worst = math.Max(worst, relResidual(sm.a, x, b))
	}
	solves := float64(len(sms))
	var total float64
	for _, v := range sms {
		total += v
	}
	m["core.factor_ms"], m["core.factor_gflops"] = median(fms), median(fgf)
	m["core.solve_gflops"] = ratio(float64(flops), total/1e3) / 1e9
	m["core.solve_p99_ms"] = percentile(sms, 99)
	m["core.rank_imbalance"] = ratio(float64(maxRank*serveP), float64(flops))
	m["core.stored_mb"] = stored / float64(len(t.set)) / 1e6
	// Growth and residual overflow on the growth-prone families; cap them
	// so the report stays a finite number.
	m["core.prefix_growth"] = math.Min(growth, math.MaxFloat64)
	if math.IsNaN(worst) || math.IsInf(worst, 0) {
		worst = math.MaxFloat64
	}
	m["core.max_rel_residual"] = worst
	m["comm.msgs_per_solve"] = ratio(float64(msgs), solves)
	m["comm.kb_per_solve"] = ratio(float64(bytes), solves) / 1024
	return nil
}

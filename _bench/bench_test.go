package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	iblocktri "blocktri/internal/blocktri"
	"blocktri/internal/core"
	"blocktri/internal/mat"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSupportedPercentileAndRatio(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

// TestLatencyCountsFromDueTime pins the open-loop accounting: an operation
// held back by a busy connection is charged from its due time, not from
// when it was finally sent.
func TestLatencyCountsFromDueTime(t *testing.T) {
	o := opTimes{due: 10 * time.Millisecond, queued: 11 * time.Millisecond, sent: 30 * time.Millisecond, done: 32 * time.Millisecond}
	if got := o.latency(); got != 22*time.Millisecond {
		t.Errorf("latency = %v, want 22ms", got)
	}
	if got := o.genLag(); got != time.Millisecond {
		t.Errorf("generator lag = %v, want 1ms", got)
	}
	if got := o.startDelay(); got != 20*time.Millisecond {
		t.Errorf("start delay = %v, want 20ms", got)
	}
}

func TestRunOpenLoopChargesStallToLaterOps(t *testing.T) {
	const stall = 30 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	ran := make([]int, len(due))
	times, _ := runOpenLoop(due, 1, func(_, i int) {
		ran[i]++
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("operation %d ran %d times", i, n)
		}
	}
	for i, o := range times {
		if o.due != due[i] || o.queued < o.due || o.sent < o.queued || o.done < o.sent {
			t.Fatalf("op %d timings out of order: %+v", i, o)
		}
	}
	// Ops 1 and 2 could not start before op 0 finished, so each waited at
	// least the stall minus its own offset.
	for i := 1; i < len(due); i++ {
		if lat := times[i].latency(); lat < stall-due[i] {
			t.Errorf("op %d latency %v does not include the %v stall", i, lat, stall-due[i])
		}
	}
	s := summarize(times)
	if s.N != 3 || s.P99ms < ms(stall-2*time.Millisecond) {
		t.Errorf("summary %+v misses the stall", s)
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := make([]opTimes, 400)
	growing := make([]opTimes, 400)
	for i := range steady {
		d := time.Duration(i) * time.Millisecond
		steady[i] = opTimes{due: d, sent: d + time.Duration(i%3)*time.Millisecond}
		growing[i] = opTimes{due: d, sent: d + time.Duration(i)*100*time.Microsecond}
	}
	if backlogGrows(steady) {
		t.Error("a stationary wait was reported as a growing backlog")
	}
	if !backlogGrows(growing) {
		t.Error("a wait climbing by 0.1ms per op was not reported as a growing backlog")
	}
}

func TestPoissonScheduleRateAndOrder(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	if n := len(due); n < 9700 || n > 10300 {
		t.Errorf("%d arrivals at 1000/s over 10s", n)
	}
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
		t.Error("due times not increasing")
	}
	again := poissonSchedule(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	if len(again) != len(due) || again[len(again)-1] != due[len(due)-1] {
		t.Error("the same seed gave a different schedule")
	}
}

// solved returns a small growth-free system, a right-hand side and its
// solution from the stable block Thomas solver.
func solved(t *testing.T, r int) (*iblocktri.Matrix, *mat.Matrix, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	a := iblocktri.Oscillatory(24, 4, rng)
	b := mat.Random(a.N*a.M, r, rng)
	x, err := core.NewThomas(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, x
}

func TestResidualCheckerRejectsPerturbedAnswer(t *testing.T) {
	for _, r := range []int{1, 3, 80} {
		a, b, x := solved(t, r)
		rr := relResidual(a, x, b)
		if !residualOK(rr) {
			t.Fatalf("R=%d: exact answer rejected, residual %g", r, rr)
		}
		if lib := a.RelResidual(x, b); math.Abs(rr-lib) > 1e-12 {
			t.Errorf("R=%d: residual %g disagrees with the library's %g", r, rr, lib)
		}
		bad := x.Clone()
		bad.Data[len(bad.Data)/2] += 1e-4
		if rr := relResidual(a, bad, b); residualOK(rr) {
			t.Errorf("R=%d: perturbed answer accepted, residual %g", r, rr)
		}
		bad.Data[0] = math.NaN()
		if rr := relResidual(a, bad, b); residualOK(rr) {
			t.Errorf("R=%d: NaN answer accepted", r)
		}
	}
}

func TestDecodeSolveClassifiesFailures(t *testing.T) {
	if _, _, c := decodeSolve(200, nil, 2, 1); c != causeUndecodable {
		t.Errorf("empty 200 body classified %s, want %s", causeNames[c], causeNames[causeUndecodable])
	}
	if _, _, c := decodeSolve(200, []byte(`{"x":[[1,2]]}`), 3, 1); c != causeUndecodable {
		t.Errorf("short column classified %s", causeNames[c])
	}
	if _, _, c := decodeSolve(503, []byte(`{"error":"overloaded"}`), 2, 1); c != causeError {
		t.Errorf("503 classified %s", causeNames[c])
	}
	resp, x, c := decodeSolve(200, []byte(`{"x":[[1,2],[3,4]],"warm":true,"wall_ns":5}`), 2, 2)
	if c != causeOK || !resp.Warm || resp.WallNs != 5 || x.At(1, 0) != 2 || x.At(0, 1) != 3 {
		t.Errorf("valid body decoded as %s %+v %v", causeNames[c], resp, x)
	}
	var tl tally
	tl.add(causeOK)
	tl.add(causeWrong)
	tl.add(causeUndecodable)
	if tl.attempted() != 3 || tl.failed() != 2 {
		t.Errorf("tally %v: attempted %d failed %d", tl, tl.attempted(), tl.failed())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 2, Name: "c", Start: 50, End: 70}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 50, "a": 30, "b": 20, "c": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// windowedSample puts ten operations in each window; each operation's
// value is its window's index.
func windowedSample() (offs []time.Duration, xs, ones []float64) {
	for w := 0; w < windows; w++ {
		for j := 0; j < 10; j++ {
			offs = append(offs, time.Duration(w)*time.Second+time.Duration(j)*time.Millisecond)
			xs = append(xs, float64(w))
			ones = append(ones, 1)
		}
	}
	return offs, xs, ones
}

func TestWindowedKeepsQuietWindows(t *testing.T) {
	offs, xs, ones := windowedSample()
	// The even windows had the most steal, so the odd ones are kept.
	steal := make([]float64, windows)
	for k := range steal {
		steal[k] = float64(1 - k%2)
	}
	w := newWindowed(offs, windows*time.Second, steal)
	if got := w.keptWindows(); got != windows/2 {
		t.Errorf("kept %d windows, want %d", got, windows/2)
	}
	if got := w.percentile(xs, 100); got != windows-1 {
		t.Errorf("maximum over quiet windows = %v, want %d", got, windows-1)
	}
	if got := w.percentile(xs, 1); got != 1 {
		t.Errorf("minimum over quiet windows = %v, want 1", got)
	}
	// Kept values are the odd window indices, ten samples each.
	if got, want := w.rate(xs, ones), float64(windows/2); got != want {
		t.Errorf("rate over quiet windows = %v, want %v", got, want)
	}
	// With steal rising window by window from zero, the quiet windows are
	// kept; from above quietSteal, the minWindows least stolen.
	for _, c := range []struct{ base, step float64 }{{0, 0.00045}, {0.05, 0.05}} {
		for k := range steal {
			steal[k] = c.base + c.step*float64(k)
		}
		want := minWindows
		if c.base == 0 {
			want = min(windows, int(quietSteal/c.step)+1)
		}
		w = newWindowed(offs, windows*time.Second, steal)
		if got := w.keptWindows(); got != want || !w.keep[0] || !w.keep[want-1] {
			t.Errorf("steal %v + %v per window: kept %v, want the first %d windows", c.base, c.step, w.keep, want)
		}
	}
}

// TestWindowedKeepsAllOnEqualSteal pins that windows whose steal is equal
// within the tick resolution are kept or dropped together: with no steal
// measured, or the same steal everywhere, the whole phase counts and not
// only its first windows.
func TestWindowedKeepsAllOnEqualSteal(t *testing.T) {
	offs, xs, ones := windowedSample()
	mean := float64(windows-1) / 2
	for _, level := range []float64{0, 0.2} {
		steal := make([]float64, windows)
		for k := range steal {
			// Differences below stealTol are tick noise.
			steal[k] = level + stealTol/2*float64(k%2)
		}
		w := newWindowed(offs, windows*time.Second, steal)
		if got := w.keptWindows(); got != windows {
			t.Errorf("steal %v: kept %d windows, want all %d", level, got, windows)
		}
		if got := w.rate(xs, ones); got != mean {
			t.Errorf("steal %v: rate = %v, want the whole phase's %v", level, got, mean)
		}
	}
	// A window the phase did not reach reads 1 and is never kept.
	steal := make([]float64, windows)
	steal[windows-1] = 1
	if w := newWindowed(offs, windows*time.Second, steal); w.keptWindows() != windows-1 || w.keep[windows-1] {
		t.Errorf("unreached window kept: %v", w.keep)
	}
}

// TestTrafficMix pins the serve-mixed request mix: every family in the
// registered set, one request in six (within a point) to a growth-prone
// family, 2% inline matrices and 10% multi-column requests.
func TestTrafficMix(t *testing.T) {
	tr, err := genTraffic(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.set) != setSize {
		t.Fatalf("%d registered systems, want %d", len(tr.set), setSize)
	}
	seen := make([]int, len(families))
	for _, sm := range tr.set {
		seen[sm.family]++
	}
	for fi, n := range seen {
		if n == 0 || (!families[fi].oneOff && n != 1) {
			t.Errorf("family %s has %d registered systems", families[fi].name, n)
		}
	}
	const n = 10 * mixBlock
	var prone, inline, multi int
	for _, s := range genSpecs(rand.New(rand.NewSource(9)), tr.set, n) {
		if families[s.family].growthProne {
			prone++
		}
		if s.matrix < 0 {
			inline++
		}
		if s.cols > 1 {
			multi++
		}
	}
	if share := float64(prone) / n; math.Abs(share-1.0/6) > 0.01 {
		t.Errorf("growth-prone share %.4f, want 1/6 within 0.01", share)
	}
	if inline != n*2/100 || multi != n/10 {
		t.Errorf("%d inline and %d multi-column of %d requests, want 2%% and 10%%", inline, multi, n)
	}
}

// TestRequestBodyAssembly checks that a body assembled from its encoded
// head and the pool's pre-encoded columns is the request it stands for.
func TestRequestBodyAssembly(t *testing.T) {
	tr, err := genTraffic(3)
	if err != nil {
		t.Fatal(err)
	}
	specs := []reqSpec{
		{tenant: 2, matrix: 5, cols: 3, rhsOff: rhsPoolCols - 1},
		{tenant: 0, matrix: -1, inline: tr.set[0].a, cols: 1, rhsOff: 7},
	}
	rbs, err := tr.encodeRequests(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rb := range rbs {
		body := tr.body(rb)
		if len(body) != rb.size {
			t.Errorf("request %d: body is %d bytes, size says %d", i, len(body), rb.size)
		}
		var got struct {
			Tenant   string      `json:"tenant"`
			MatrixID string      `json:"matrix_id"`
			Matrix   *matrixWire `json:"matrix"`
			B        [][]float64 `json:"b"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("request %d: %v in %.80s", i, err, body)
		}
		s := specs[i]
		if got.Tenant != "tenant-"+strconv.Itoa(s.tenant) {
			t.Errorf("request %d: tenant %q", i, got.Tenant)
		}
		if s.matrix >= 0 && (got.MatrixID != tr.set[s.matrix].id || got.Matrix != nil) {
			t.Errorf("request %d: matrix_id %q, inline %v", i, got.MatrixID, got.Matrix != nil)
		}
		if s.matrix < 0 && (got.MatrixID != "" || got.Matrix == nil || got.Matrix.N != setN || len(got.Matrix.Diag) != setN) {
			t.Errorf("request %d: inline matrix not carried", i)
		}
		want := tr.columns(s)
		if len(got.B) != len(want) {
			t.Fatalf("request %d: %d columns, want %d", i, len(got.B), len(want))
		}
		for j := range want {
			if !slices.Equal(got.B[j], want[j]) {
				t.Errorf("request %d: column %d differs from the pool", i, j)
			}
		}
	}
}

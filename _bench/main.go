// Command bench is the end-to-end benchmark of the ARD library and the
// blocktri-serve service. Each run executes one named workload, verifies
// every answer against its matrix, and prints one JSON object on its last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around each layer call and reports the per-layer metrics
// instead, writing the spans to .bench_build/. Earlier lines carry the
// host facts and a breakdown of the run. Build and run it through run.sh,
// which also builds the serve binary:
//
//	bash _bench/run.sh --workload serve-mixed --seed 3 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"blocktri/internal/mat"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rhs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
	{"ok_share", "share", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"http.overhead_p50_ms", "ms", "lower"},
	{"http.overhead_p99_ms", "ms", "lower"},
	{"http.req_kb", "kB", "lower"},
	{"http.resp_kb", "kB", "lower"},
	{"http.inline_p50_ms", "ms", "lower"},
	{"serve.service_warm_p50_ms", "ms", "lower"},
	{"serve.service_cold_p50_ms", "ms", "lower"},
	{"serve.factor_hit_ratio", "share", "higher"},
	{"serve.evictions", "count", "lower"},
	{"serve.jobs_per_panel", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.expired", "count", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.submit_p50_ms", "ms", "lower"},
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"core.factor_ms", "ms", "lower"},
	{"core.factor_gflops", "GFLOP/s", "higher"},
	{"core.solve_gflops", "GFLOP/s", "higher"},
	{"core.solve_p99_ms", "ms", "lower"},
	{"core.rank_imbalance", "ratio", "lower"},
	{"core.stored_mb", "MB", "lower"},
	{"core.prefix_growth", "ratio", "lower"},
	{"core.max_rel_residual", "ratio", "lower"},
	{"comm.msgs_per_solve", "count", "lower"},
	{"comm.kb_per_solve", "kB", "lower"},
	{"comm.run_dispatch_us", "us", "lower"},
	{"comm.exchange_us", "us", "lower"},
	{"mat.panel_gflops", "GFLOP/s", "higher"},
	{"mat.gemv_gflops", "GFLOP/s", "higher"},
	{"mat.lu_solve_r1_us", "us", "lower"},
	{"mat.lu_solve_r64_us", "us", "lower"},
	{"mat.lu_factor_us", "us", "lower"},
	{"mat.panel_flops_per_byte", "flop/B", "higher"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.cpu_util", "ratio", "higher"},
	{"bench.gen_lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
}

// outDir holds build outputs and trace files; .gitignore lists it.
const outDir = ".bench_build"

// result is what a workload hands back for printing. correct is the
// verdict on the program's outputs; tally counts every operation the
// metrics cover by outcome.
type result struct {
	correct bool
	tally   tally
	metrics map[string]float64
	// notApplicable lists per-layer metrics the workload does not
	// exercise; they are reported as 0.
	notApplicable []string
	detail        map[string]any
}

var workloads = map[string]func(runConfig) (*result, error){
	"panel-r64":   func(c runConfig) (*result, error) { return runLibrary(c, 64, false) },
	"timestep-r1": func(c runConfig) (*result, error) { return runLibrary(c, 1, true) },
	"serve-mixed": runServeMixed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg runConfig
	var secs, trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload to run: panel-r64, timestep-r1 or serve-mixed")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fl.IntVar(&secs, "seconds", 20, "measured duration of the run")
	fl.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fl.StringVar(&cfg.serveBin, "serve-bin", "", "blocktri-serve binary built from this tree")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.seconds, cfg.trace = time.Duration(secs)*time.Second, trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (panel-r64|timestep-r1|serve-mixed), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	host := hostFacts(cfg)
	steal0, busy0 := cpuStealTicks()
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	steal1, busy1 := cpuStealTicks()
	// Time the hypervisor ran something else on this machine's CPUs: a
	// run with a large share is disturbed from outside.
	host["cpu_steal_share"] = ratio(steal1-steal0, busy1-busy0)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s missing or not finite (%v)\n", cfg.workload, d.name, v)
			return 1
		}
		metrics[d.name] = value{v, d.unit}
	}
	res.detail["outcomes"] = res.tally.byName()
	res.detail["not_applicable"] = res.notApplicable
	for _, line := range []any{map[string]any{"host": host}, map[string]any{"detail": res.detail}} {
		if err := printJSON(stdout, line); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.tally.attempted(), res.tally.failed(), metrics}
	if final.Attempted < 1 {
		fmt.Fprintf(stderr, "bench: %s: no operation was attempted\n", cfg.workload)
		return 1
	}
	if err := printJSON(stdout, final); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding output: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// hostFacts records what a result depends on besides the code: results
// from different hosts are not comparable. The benchmark runs in a plain
// source checkout, so the build is identified by a hash of its sources.
func hostFacts(cfg runConfig) map[string]any {
	model, avx512 := cpuInfo()
	facts := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     model,
		"avx512":        avx512,
		"go_version":    runtime.Version(),
		"parallel_gemm": mat.ParallelEnabled(),
		"tree_sha256":   treeHash("."),
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"trace":         cfg.trace,
	}
	if cfg.workload == "serve-mixed" {
		facts["serve_flags"] = serveFlags()
	}
	return facts
}

// cpuInfo returns the CPU model name and whether AVX-512F is present, which
// selects the packed GEMM kernel in internal/mat.
func cpuInfo() (string, bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	defer f.Close()
	model, avx := "unknown", false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			avx = avx || strings.Contains(" "+val+" ", " avx512f ")
		}
	}
	return model, avx
}

// treeHash digests the Go sources, assembly and go.mod files under root,
// skipping hidden directories such as .bench_build.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuStealTicks returns the machine's cumulative steal ticks from
// /proc/stat and its busy ticks: every tick but idle and iowait, steal
// included. Steal accrues only while a CPU has work, so steal over busy
// time is the share of the time this machine wanted to run that the
// hypervisor gave to other guests, and does not fall when the benchmark's
// own load does. Where /proc/stat is unavailable both are zero.
func cpuStealTicks() (steal, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 3, 4:
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return steal, busy
}

// peakRSSMB returns VmHWM, the peak resident set size, of process pid
// ("self" for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// zeroMetrics sets each named per-layer metric to 0 and returns the names,
// for layers a workload does not pass through.
func zeroMetrics(m map[string]float64, prefixes ...string) []string {
	var names []string
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				if _, set := m[d.name]; !set {
					m[d.name] = 0
					names = append(names, d.name)
				}
			}
		}
	}
	return names
}

// Command perfbench is the repository's benchmark. One invocation runs one
// workload in one process and prints, as the last line of its standard
// output, a JSON object with the ops attempted and failed, whether every
// output check passed, and the metrics:
//
//	bash perfbench/run.sh --workload coldstart --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end host metrics. With --trace 1
// the same workload runs under a CPU and allocation profile and the metrics
// are the per-layer ones: host cost attributed to pask/internal/<layer>,
// spans around the public calls the benchmark makes, the counts the program
// reports, and the workload's virtual-time results. The workloads and the
// meaning of every metric are described in README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner is a workload after set-up.
type runner interface {
	// round runs one whole round of the workload's ops and checks every
	// output. A returned error is a failed check.
	round(sp spans) (roundResult, error)
	// results checks the outputs gathered over all rounds and returns the
	// workload's virtual-time metrics and program-reported counts.
	results() (map[string]float64, error)
}

type roundResult struct {
	times  []opTime
	failed int
}

// opTime is one timed sample: the host time of one op, or of a session of
// several ops. kind names the op (or session) so that its passes in
// different rounds can be grouped.
type opTime struct {
	kind string
	ops  int
	ms   float64
}

func (rr *roundResult) ops() int {
	n := 0
	for _, t := range rr.times {
		n += t.ops
	}
	return n
}

// busyMs is the host time the round's timed samples took.
func (rr *roundResult) busyMs() float64 {
	ms := 0.0
	for _, t := range rr.times {
		ms += t.ms
	}
	return ms
}

type workload struct {
	name  string
	setup func(seed int64, sp spans) (runner, error)
}

var workloads = []workload{
	{"coldstart", setupColdstart},
	{"fleet", setupFleet},
	{"scenarios", setupScenarios},
}

// Set-up runs at least setupMinReps times and until setupBudget of host
// time has gone into it; setup_s is the median of its runs. A set-up takes
// 0.15-0.7 s, and the median of only five of them moved by up to a quarter
// from one set of runs to the next.
const (
	setupMinReps = 5
	setupBudget  = 4 * time.Second
)

type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the metrics of a traced run, in report order. Metrics a
// workload does not exercise read 0.
var perLayer = func() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_ms", "ms/op"})
	}
	for _, l := range layers {
		out = append(out, metric{l + ".alloc_mb", "MB/op"})
	}
	out = append(out, []metric{
		{"process.cpu_ms", "ms/op"},
		{"traced.ops_per_s", "1/s"},
		{"experiments.bringup_ms", "ms"},
		{"core.coldstart_ms", "ms"},
		{"serving.session_ms", "ms"},
	}...)
	for _, s := range scenarioNames {
		out = append(out, metric{"serving." + s + "_ms", "ms"})
	}
	out = append(out, []metric{
		{"trace.export_ms", "ms"},
		{"trace.export_kb", "KB"},
		{"backend.loads", "count"},
		{"backend.loaded_mb", "MB"},
		{"core.queries", "count"},
		{"core.hits", "count"},
		{"core.hit_rate", "ratio"},
		{"core.lookups_per_query", "ratio"},
		{"core.skipped_loads", "count"},
		{"virt.load_ms", "virt_ms"},
		{"virt.exec_ms", "virt_ms"},
		{"virt.overhead_ms", "virt_ms"},
		{"virt.parse_ms", "virt_ms"},
		{"serving.spawned", "count"},
		{"serving.reaped", "count"},
		{"serving.swapped", "count"},
		{"serving.cold_starts", "count"},
		{"serving.loads", "count"},
		{"virt_pask_ms", "virt_ms"},
		{"virt_speedup_x", "x"},
		{"virt_latency_ms_p50", "virt_ms"},
		{"virt_latency_ms_p99", "virt_ms"},
		{"virt_capacity_rps", "req/virt_s"},
	}...)
	return out
}()

// spans accumulates host-time spans (and other per-call values) around the
// public calls the benchmark makes; each metric reports the mean per call.
type spans map[string]*[2]float64

func (s spans) add(name string, v float64) {
	a := s[name]
	if a == nil {
		a = new([2]float64)
		s[name] = a
	}
	a[0] += v
	a[1]++
}

// time runs f and records its host time in milliseconds under name.
func (s spans) time(name string, f func() error) error {
	t := cpuTime()
	err := f()
	s.add(name, cpuMsSince(t))
	return err
}

func (s spans) mean(name string) float64 {
	if a := s[name]; a != nil && a[1] > 0 {
		return a[0] / a[1]
	}
	return 0
}

// cpuMsSince returns the host time since t, a cpuTime reading, in ms.
func cpuMsSince(t time.Duration) float64 { return float64(cpuTime()-t) / 1e6 }

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: coldstart, fleet or scenarios")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 30, "length of the timed phase; whole rounds run until it has passed")
	traced := fs.Int("trace", 0, "1: profiled run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload coldstart|fleet|scenarios, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := measure(workloads[i], *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stderr)
	if res != nil {
		out, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(out))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errCheck marks a failed output check: the run reports correct=false.
type errCheck struct{ error }

func checkf(format string, args ...any) error { return errCheck{fmt.Errorf(format, args...)} }

// measure sets the workload up repeatedly (see setupBudget), then runs whole
// rounds until d has passed, and assembles the result.
func measure(w workload, seed int64, d time.Duration, traced bool, log io.Writer) (*result, error) {
	// The simulator runs one simulated thread at a time. With one P the
	// garbage collector shares the work's thread instead of spreading to a
	// core that other processes on the machine may be using.
	runtime.GOMAXPROCS(1)
	if traced {
		runtime.MemProfileRate = 64 << 10
	}
	setupSp, sp := spans{}, spans{}
	var r runner
	var setups []float64
	for spent := time.Duration(0); len(setups) < setupMinReps || spent < setupBudget; {
		runtime.GC()
		t := cpuTime()
		var err error
		if r, err = w.setup(seed, setupSp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := cpuTime() - t
		spent += took
		setups = append(setups, took.Seconds())
	}

	var cpuProf bytes.Buffer
	var heap0 []byte
	runtime.GC()
	if traced {
		heap0 = heapProfile()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var rounds []roundResult
	var checkErr error
	for len(rounds) == 0 || time.Since(t0) < d {
		rr, err := r.round(sp)
		rounds = append(rounds, rr)
		if err != nil {
			checkErr = err
			break
		}
	}
	elapsed := time.Since(t0).Seconds()
	cpu := cpuTime() - cpu0
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)

	attempted, failed := 0, 0
	var rates []float64
	perKind := map[string][]float64{}
	for _, rr := range rounds {
		attempted += rr.ops()
		failed += rr.failed
		rates = append(rates, float64(rr.ops())/rr.busyMs()*1e3)
		for _, t := range rr.times {
			perKind[t.kind] = append(perKind[t.kind], t.ms/float64(t.ops))
		}
	}
	var opMs []float64
	for _, xs := range perKind {
		opMs = append(opMs, median(xs))
	}
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	virt, err := r.results()
	if checkErr == nil {
		checkErr = err
	}
	if checkErr != nil {
		var ce errCheck
		if !errors.As(checkErr, &ce) {
			return nil, checkErr
		}
		res.Correct = false
		return res, checkErr
	}
	ops := float64(max(attempted, 1))
	// ops_per_s is the median over rounds of each round's rate, so that one
	// round disturbed by another process on the machine does not set it.
	opsPerS := median(rates)
	fmt.Fprintf(log, "perfbench: %s seed=%d GOMAXPROCS=%d setups=%d rounds=%d ops=%d failed=%d timed=%.2fs traced=%v\n",
		w.name, seed, runtime.GOMAXPROCS(0), len(setups), len(rounds), attempted, failed, elapsed, traced)
	vj, _ := json.Marshal(virt)
	fmt.Fprintf(log, "perfbench: virtual %s\n", vj)

	emit := func(ms []metric, vals map[string]float64) {
		for _, m := range ms {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
	}
	if !traced {
		emit(endToEnd, map[string]float64{
			"setup_s":         median(setups),
			"ops_per_s":       opsPerS,
			"op_ms_p50":       middleMean(opMs),
			"peak_rss_mb":     peakRSSMB(),
			"alloc_mb_per_op": float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / ops,
		})
		return res, nil
	}

	runtime.GC()
	cpuByLayer, err := attribute(cpuProf.Bytes(), "cpu", nil)
	if err != nil {
		return nil, err
	}
	allocByLayer, err := attribute(heapProfile(), "alloc_space", heap0)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"process.cpu_ms":   cpu.Seconds() * 1e3 / ops,
		"traced.ops_per_s": opsPerS,
	}
	// Spans of calls made only in set-up report their set-up calls.
	for _, s := range []spans{setupSp, sp} {
		for name := range s {
			vals[name] = s.mean(name)
		}
	}
	for _, l := range layers {
		vals[l+".cpu_ms"] = float64(cpuByLayer[l]) / 1e6 / ops
		vals[l+".alloc_mb"] = float64(allocByLayer[l]) / (1 << 20) / ops
	}
	for name, v := range virt {
		vals[name] = v
	}
	emit(perLayer, vals)
	return res, nil
}

// attribute sums a profile's named value per layer; with a base profile
// (cumulative allocation counts taken earlier) it reports the difference.
func attribute(data []byte, valueType string, base []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out, err := p.byLayer(valueType)
	if err != nil || base == nil {
		return out, err
	}
	bp, err := parseProfile(base)
	if err != nil {
		return nil, err
	}
	before, err := bp.byLayer(valueType)
	for l, v := range before {
		out[l] -= v
	}
	return out, err
}

// heapProfile returns the cumulative allocation profile as of the last
// garbage collection.
func heapProfile() []byte {
	runtime.GC()
	var b bytes.Buffer
	pprof.Lookup("allocs").WriteTo(&b, 0)
	return b.Bytes()
}

// cpuTime is the process's user plus system CPU time. Host time is measured
// on this clock rather than the wall clock: on a shared machine the wall
// clock also counts the time the process waited for a core, which swung
// the same run's wall-clock rate by up to 15% while its CPU rate held
// within 2%.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/serving"
	"pask/internal/trace"
)

// The scenarios workload: each op is one serving scenario, run with every
// configuration field set here rather than left to the program's defaults,
// with a trace.Recorder attached where the scenario takes one, and its
// Chrome trace exported and read back. A round runs all seven once, in an
// order drawn from the seed; the seed also draws every scenario seed.

var scenarioNames = []string{"multitenant", "overload", "chaos", "cacheimage", "placement", "predictive", "failover"}

// untraced are the scenarios whose entry points take no trace.Recorder.
// Every other scenario must record events, and its exported trace is checked.
var untraced = map[string]bool{"multitenant": true, "chaos": true}

// scenarioRuns maps each scenario to its entry point, called with its
// seed and a recorder (nil for the untraced ones); it returns the
// scenario's result (tables and bench) after checking the properties the
// entry point does not check itself.
var scenarioRuns = map[string]func(seed int64, rec *trace.Recorder) (*experiments.Result, error){
	"multitenant": runMultitenant,
	"overload":    runOverload,
	"chaos":       runChaos,
	"cacheimage":  runCacheImage,
	"placement":   runPlacement,
	"predictive":  runPredictive,
	"failover":    runFailover,
}

var paperModels = []string{"alex", "res", "vgg"}

type scenarios struct {
	order []string
	seeds map[string]int64
	// envelopes holds each scenario's first result envelope; every later
	// pass must reproduce it byte for byte.
	envelopes map[string][]byte
}

func setupScenarios(seed int64, sp spans) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &scenarios{seeds: map[string]int64{}, envelopes: map[string][]byte{}}
	for _, name := range scenarioNames {
		s.seeds[name] = 1 + rng.Int63n(1<<31)
	}
	s.order = append(s.order, scenarioNames...)
	rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	// Warm-up: the cheapest scenario, unseeded, untimed.
	if _, err := runMultitenant(0, nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *scenarios) round(sp spans) (roundResult, error) {
	var rr roundResult
	for _, name := range s.order {
		var rec *trace.Recorder
		if !untraced[name] {
			rec = trace.New()
		}
		var res *experiments.Result
		var chrome bytes.Buffer
		runtime.GC() // as in fleet: each op starts from a collected heap
		t := cpuTime()
		err := sp.time("serving."+name+"_ms", func() (err error) {
			res, err = scenarioRuns[name](s.seeds[name], rec)
			return err
		})
		if err == nil && rec != nil {
			if len(rec.Spans())+len(rec.Counters())+len(rec.Instants()) == 0 {
				err = checkf("the attached recorder holds no events")
			} else {
				err = sp.time("trace.export_ms", func() error { return rec.WriteChrome(&chrome) })
				sp.add("trace.export_kb", float64(chrome.Len())/1024)
			}
		}
		rr.times = append(rr.times, opTime{name, 1, cpuMsSince(t)})
		// Every config is fixed by the benchmark, so any error, the
		// scenario's own acceptance checks included, is a program fault.
		if err != nil {
			if !errors.As(err, new(errCheck)) {
				err = errCheck{err}
			}
			return rr, fmt.Errorf("%s: %w", name, err)
		}
		if rec != nil {
			if err := checkChromeTrace(chrome.Bytes()); err != nil {
				return rr, checkf("%s: %v", name, err)
			}
		}
		env, err := json.Marshal(experiments.NewEnvelope(name, res))
		if err != nil {
			return rr, err
		}
		if err := checkEnvelope(s.envelopes[name], env); err != nil {
			return rr, checkf("%s: %v", name, err)
		}
		s.envelopes[name] = env
	}
	return rr, nil
}

func (s *scenarios) results() (map[string]float64, error) { return map[string]float64{}, nil }

// checkEnvelope requires a pass's envelope to equal the first pass's (prev
// is nil on the first pass).
func checkEnvelope(prev, cur []byte) error {
	if prev != nil && !bytes.Equal(prev, cur) {
		return fmt.Errorf("result envelope differs from the first pass (%d vs %d bytes)", len(cur), len(prev))
	}
	return nil
}

// checkChromeTrace parses an exported trace as Chrome trace_event JSON.
func checkChromeTrace(data []byte) error {
	var f struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace is not JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("trace has no traceEvents")
	}
	for i, e := range f.TraceEvents {
		if e.Name == nil || e.Ph == nil {
			return fmt.Errorf("trace event %d lacks name or ph", i)
		}
		if *e.Ph == "X" && (e.Ts == nil || e.Dur == nil || *e.Ts < 0 || *e.Dur < 0) {
			return fmt.Errorf("complete event %d (%s) lacks a valid ts/dur", i, *e.Name)
		}
	}
	return nil
}

func tabled(tbl *experiments.Table, bench any) *experiments.Result {
	return &experiments.Result{Tables: []*experiments.Table{tbl}, Bench: bench}
}

// runMultitenant takes no seed and no recorder: its trace is a fixed
// interleaving and it has no recording seam.
func runMultitenant(_ int64, _ *trace.Recorder) (*experiments.Result, error) {
	cfg := serving.MultitenantConfig{
		Models: []string{"res", "vgg"}, Batch: 1, Profile: device.MI100(),
		PerTenant: 4, Interval: 2 * time.Millisecond, KeepAlive: time.Second,
	}
	tbl, res, err := serving.Multitenant(cfg)
	if err != nil {
		return nil, err
	}
	if !res.StoreUntouched() {
		return nil, checkf("serving changed the code-object store")
	}
	for _, fs := range []*serving.FleetStats{res.Isolated, res.Shared} {
		if err := checkFleet(fs, cfg.PerTenant*len(cfg.Models), 0); err != nil {
			return nil, checkf("%v", err)
		}
	}
	for _, m := range cfg.Models[1:] {
		if sh, iso := serving.FirstCold(res.Shared, m), serving.FirstCold(res.Isolated, m); sh >= iso {
			return nil, checkf("%s: shared first cold start %v not below isolated %v", m, sh, iso)
		}
	}
	return tabled(tbl, res), nil
}

func runOverload(seed int64, rec *trace.Recorder) (*experiments.Result, error) {
	tbl, bench, err := serving.Overload(serving.OverloadConfig{
		Model: "res", Batch: 1, Requests: 40, MeanInterval: 12 * time.Millisecond,
		Burst: 36, MaxInstances: 3, SLO: 265 * time.Millisecond,
		QueueDeadline: 240 * time.Millisecond, FTDeadline: 55 * time.Millisecond,
		SlowExtra: 25 * time.Millisecond, Seed: seed, Rec: rec,
	})
	if err != nil {
		return nil, err
	}
	for _, d := range bench.Devices {
		for _, c := range d.Cells {
			if got := c.Served + c.Shed + c.BreakerRejected + c.Failed; got != c.Requests {
				return nil, checkf("%s %s/%s: accounted %d of %d requests", d.Device, c.Trace, c.Arm, got, c.Requests)
			}
		}
	}
	return tabled(tbl, bench), nil
}

// runChaos has no recorder seam.
func runChaos(seed int64, _ *trace.Recorder) (*experiments.Result, error) {
	cfg := serving.ChaosConfig{
		Model: "res", Batch: 1, Profile: device.MI100(), Requests: 60,
		MeanInterval: 2 * time.Millisecond, EvictEvery: 10, Seed: seed,
		Transients: []float64{0, 0.1, 0.3}, Permanents: []float64{0, 0.02},
	}
	tbl, err := serving.Chaos(cfg)
	if err != nil {
		return nil, err
	}
	want := len(cfg.Transients) * len(cfg.Permanents) * len(serving.DefaultChaosPolicies())
	if len(tbl.Rows) != want {
		return nil, checkf("%d sweep rows, want %d", len(tbl.Rows), want)
	}
	for _, row := range tbl.Rows {
		if row[0] == "pask/resilient" && row[len(row)-1] != "completed" {
			return nil, checkf("resilient policy did not complete at transient %s, permanent %s", row[1], row[2])
		}
	}
	return tabled(tbl, nil), nil
}

func runCacheImage(seed int64, rec *trace.Recorder) (*experiments.Result, error) {
	tbl, bench, err := serving.CacheImage(serving.CacheImageConfig{
		Model: "res", Batch: 1, Nodes: []int{4, 8}, Coverages: []float64{0, 0.5, 1},
		MaxPullAttempts: 3, ChaosCorrupt: 0.35, ChaosTruncate: 0.35, ChaosKill: 0.25,
		Seed: seed, Rec: rec,
	})
	if err != nil {
		return nil, err
	}
	for _, d := range bench.Devices {
		for _, c := range append(d.Cells, *d.Chaos) {
			if c.Served+c.Failed != c.Nodes || c.Attached > c.Seeded || !c.StoreUntouched {
				return nil, checkf("%s %d nodes at coverage %.1f: served %d + failed %d, attached %d of %d seeded, store untouched %v",
					d.Device, c.Nodes, c.Coverage, c.Served, c.Failed, c.Attached, c.Seeded, c.StoreUntouched)
			}
		}
	}
	return tabled(tbl, bench), nil
}

func runPlacement(_ int64, rec *trace.Recorder) (*experiments.Result, error) {
	tbl, bench, err := serving.Placement(serving.PlacementConfig{
		Models: paperModels, Batch: 1, Profiles: device.Profiles(), Tenants: 18,
		Interval: 100 * time.Millisecond, Dwell: 150 * time.Millisecond, Slots: 1, Rec: rec,
	})
	if err != nil {
		return nil, err
	}
	for _, f := range bench.Fleets {
		base, best := f.Arm(serving.PlaceFirstFit, false), f.Arm(serving.PlaceAffinity, true)
		if base == nil || best == nil || best.TTFIMeanMs >= base.TTFIMeanMs {
			return nil, checkf("%s fleet: affinity plus peering does not beat first-fit", f.Primary)
		}
	}
	return tabled(tbl, bench), nil
}

func runPredictive(seed int64, rec *trace.Recorder) (*experiments.Result, error) {
	cfg := serving.PredictiveConfig{
		Models: paperModels, Batch: 1, Requests: 240, MeanInterval: 25 * time.Millisecond,
		Exponent: 1.3, ShiftFrac: 0.45, CrowdPeak: 4, Slots: 2, KeepAlive: 300 * time.Millisecond,
		Confidence: 0.45, Seed: seed, Rec: rec,
	}
	cfg.Budget.Entries = 36
	tbl, bench, err := serving.Predictive(cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range bench.Devices {
		for _, c := range d.Cells {
			if c.Served+c.Failed != c.Requests {
				return nil, checkf("%s/%s: served %d + failed %d != %d requests", d.Device, c.Arm, c.Served, c.Failed, c.Requests)
			}
		}
	}
	return tabled(tbl, bench), nil
}

// runFailover leaves every check to serving.Failover, which makes them
// itself: each arm accounts for every request and lost none, warm
// evacuation beat a cold respawn, the link-flap arm fell back to local
// loads and the degraded GPU rejoined.
func runFailover(_ int64, rec *trace.Recorder) (*experiments.Result, error) {
	tbl, bench, err := serving.Failover(serving.FailoverConfig{
		Models: paperModels, Batch: 1, Profiles: device.Profiles(), Requests: 8,
		Interval: 4 * time.Millisecond, Gap: 6 * time.Millisecond, KillAt: 45 * time.Millisecond,
		FlapFor: 150 * time.Millisecond, Degrade: 250 * time.Millisecond,
		Settle: 40 * time.Millisecond, Slots: len(paperModels) + 1, Rec: rec,
	})
	if err != nil {
		return nil, err
	}
	return tabled(tbl, bench), nil
}

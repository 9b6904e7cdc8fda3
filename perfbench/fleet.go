package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"pask/internal/core"
	"pask/internal/device"
	"pask/internal/experiments"
	"pask/internal/serving"
	"pask/internal/traffic"
)

// The fleet workload: each op is one simulated request. Eight CNN zoo
// models share one MI100 (serving.ServeFleetModels in shared mode, PaSK
// scheme, keep-alive reaping, an instance cap). A round is one session at
// the nominal rate plus one session per rate of a fixed ladder that climbs
// past the latency knee. Every session replays a seeded Zipf stream whose
// popularity ranking reverses halfway through.

var (
	fleetModels = []string{"alex", "vgg", "res", "reg", "eff", "rcnn", "ssd", "fcn"}
	fleetConfig = serving.FleetConfig{
		Policy:       serving.Policy{Scheme: core.SchemePaSK},
		KeepAlive:    500 * time.Millisecond,
		MaxInstances: 16,
		Shared:       true,
	}
)

const (
	nominalRPS      = 150.0
	nominalRequests = 4000
	// Each ladder session holds enough requests for a p99 with at least
	// ten samples beyond it.
	ladderRequests = 1000
	// latencyLimitMs is the virtual p99 a ladder rate must meet (with no
	// request failed, shed or rejected) to count towards capacity.
	latencyLimitMs = 150.0
)

var ladderRPS = []float64{100, 200, 300, 400}

type session struct {
	rate  float64
	trace serving.Trace
}

type fleet struct {
	setups   map[string]*experiments.ModelSetup
	sessions []session // sessions[0] runs at the nominal rate
	minHot   time.Duration
	// first holds each session's stats from its first pass; every later
	// pass must reproduce its latencies exactly.
	first []*serving.FleetStats
}

func setupFleet(seed int64, sp spans) (runner, error) {
	f := &fleet{}
	err := sp.time("experiments.bringup_ms", func() (err error) {
		f.setups, err = experiments.PrepareModelsShared(fleetModels, 1, device.MI100())
		return err
	})
	if err != nil {
		return nil, err
	}
	// The latency floor: no request can beat the fastest model's hot
	// iteration, measured on its own.
	for _, m := range fleetModels {
		_, hot, _, err := f.setups[m].RunColdHot()
		if err != nil {
			return nil, err
		}
		if f.minHot == 0 || hot < f.minHot {
			f.minHot = hot
		}
	}
	rng := rand.New(rand.NewSource(seed))
	add := func(rate float64, n int) error {
		tr, err := fleetTrace(rate, n, rng.Int63())
		f.sessions = append(f.sessions, session{rate, tr})
		return err
	}
	if err := add(nominalRPS, nominalRequests); err != nil {
		return nil, err
	}
	for _, rate := range ladderRPS {
		if err := add(rate, ladderRequests); err != nil {
			return nil, err
		}
	}
	f.first = make([]*serving.FleetStats, len(f.sessions))
	return f, nil
}

// fleetTrace draws n Zipf arrivals at rate; the popularity ranking reverses
// halfway through the stream.
func fleetTrace(rate float64, n int, seed int64) (serving.Trace, error) {
	reversed := make([]int, len(fleetModels))
	for i := range reversed {
		reversed[i] = len(fleetModels) - 1 - i
	}
	half := time.Duration(float64(n) / rate / 2 * float64(time.Second))
	g, err := traffic.New(traffic.Config{
		Models: fleetModels,
		Rate:   rate,
		Shifts: []traffic.Shift{{At: half, Rank: reversed}},
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	tr := make(serving.Trace, n)
	for i, r := range g.Generate(n) {
		tr[i] = serving.Request{At: r.At, Model: r.Model}
	}
	return tr, nil
}

func (f *fleet) round(sp spans) (roundResult, error) {
	var rr roundResult
	for i, s := range f.sessions {
		// Collect the last session's garbage outside the timed call, so
		// that each session's peak heap does not depend on where the
		// collector's cycle happened to fall.
		runtime.GC()
		t := cpuTime()
		var fs *serving.FleetStats
		err := sp.time("serving.session_ms", func() (err error) {
			fs, err = serving.ServeFleetModels(f.setups, fleetModels[0], fleetConfig, s.trace)
			return err
		})
		rr.times = append(rr.times, opTime{fmt.Sprint(i), len(s.trace), cpuMsSince(t)})
		if err != nil {
			rr.failed += len(s.trace)
			continue
		}
		rr.failed += fs.Failed
		if err := checkFleet(fs, len(s.trace), f.minHot); err != nil {
			return rr, checkf("session at %.0f req/s: %v", s.rate, err)
		}
		if f.first[i] == nil {
			f.first[i] = fs
		} else if !slices.Equal(fs.Latencies, f.first[i].Latencies) {
			return rr, checkf("session at %.0f req/s: latencies differ from the first round", s.rate)
		}
	}
	return rr, nil
}

// checkFleet checks one session's accounting and latency floor.
func checkFleet(fs *serving.FleetStats, sent int, floor time.Duration) error {
	if got := len(fs.Latencies) + fs.Failed + fs.Shed + fs.BreakerRejected + fs.Evacuated; got != sent {
		return fmt.Errorf("served %d + failed %d + shed %d + rejected %d + evacuated %d = %d, sent %d",
			len(fs.Latencies), fs.Failed, fs.Shed, fs.BreakerRejected, fs.Evacuated, got, sent)
	}
	for i, l := range fs.Latencies {
		if l < floor {
			return fmt.Errorf("request %d took %v, below the fastest hot iteration %v", i, l, floor)
		}
	}
	return nil
}

func latenciesMs(fs *serving.FleetStats) []float64 {
	out := make([]float64, len(fs.Latencies))
	for i, l := range fs.Latencies {
		out[i] = float64(l) / float64(time.Millisecond)
	}
	return out
}

func (f *fleet) results() (map[string]float64, error) {
	if slices.Contains(f.first, nil) {
		return nil, fmt.Errorf("a fleet session never served")
	}
	nom := f.first[0]
	lat := latenciesMs(nom)
	p50, _ := percentile(lat, 0.5)
	p99, ok := percentile(lat, 0.99)
	if !ok {
		return nil, checkf("nominal session: %d served requests are too few for a p99", len(lat))
	}
	out := map[string]float64{}
	capacity := 0.0
	for i, s := range f.sessions[1:] {
		fs := f.first[i+1]
		p, ok := percentile(latenciesMs(fs), 0.99)
		// Printed with the virtual results; not a metric of its own.
		out[fmt.Sprintf("ladder_p99_ms_at_%.0f", s.rate)] = p
		if ok && p <= latencyLimitMs && fs.Failed+fs.Shed+fs.BreakerRejected == 0 && s.rate > capacity {
			capacity = s.rate
		}
	}
	for k, v := range map[string]float64{
		"virt_latency_ms_p50": p50,
		"virt_latency_ms_p99": p99,
		"virt_capacity_rps":   capacity,
		"serving.spawned":     float64(nom.Spawned),
		"serving.reaped":      float64(nom.Reaped),
		"serving.swapped":     float64(nom.Swapped),
		"serving.cold_starts": float64(nom.ColdStarts),
		"serving.loads":       float64(nom.ModuleLoads),
	} {
		out[k] = v
	}
	return out, nil
}

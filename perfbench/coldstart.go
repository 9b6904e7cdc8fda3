package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pask"
)

// The coldstart workload: each op is one what-if through the public API —
// bring one zoo model up on one device profile with pask.NewSystem, then
// cold-start it under all six schemes. A round visits the 12 Table I models
// x 3 profiles once, at batch 1 in f32, in an order drawn from the seed.

var coldstartDevices = []string{"MI100", "A100", "6900XT"}

// warmupModel is brought up and cold-started on every profile in set-up,
// so that lazy runtime state of both backend flavors exists before the
// timed phase. It is fixed, not seeded, so set-up does the same work on
// every seed.
const warmupModel = "res"

type pair struct{ model, device string }

type coldstart struct {
	// pairs is the canonical device x model order; order is the seeded
	// order a round visits them in.
	pairs, order []pair
	// first holds each pair's reports from its first pass; later passes
	// must reproduce every scheme's Total.
	first map[pair]map[pask.Scheme]*pask.Report
}

func setupColdstart(seed int64, sp spans) (runner, error) {
	var pairs []pair
	for _, d := range coldstartDevices {
		for _, m := range pask.Models() {
			pairs = append(pairs, pair{m.Abbr, d})
		}
	}
	order := slices.Clone(pairs)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, d := range coldstartDevices {
		if _, err := whatIf(pair{warmupModel, d}, sp); err != nil {
			return nil, err
		}
	}
	return &coldstart{pairs: pairs, order: order, first: map[pair]map[pask.Scheme]*pask.Report{}}, nil
}

// whatIf brings one system up and cold-starts it under every scheme.
func whatIf(p pair, sp spans) (map[pask.Scheme]*pask.Report, error) {
	var sys *pask.System
	err := sp.time("experiments.bringup_ms", func() (err error) {
		sys, err = pask.NewSystem(pask.Config{Model: p.model, Device: p.device, Batch: 1, DType: "f32"})
		return err
	})
	if err != nil {
		return nil, err
	}
	reps := make(map[pask.Scheme]*pask.Report)
	for _, s := range pask.Schemes() {
		var rep *pask.Report
		err := sp.time("core.coldstart_ms", func() (err error) {
			rep, err = sys.RunScheme(s)
			return err
		})
		if err != nil {
			return nil, err
		}
		reps[s] = rep
	}
	return reps, nil
}

func (c *coldstart) round(sp spans) (roundResult, error) {
	var rr roundResult
	for _, p := range c.order {
		t := cpuTime()
		reps, err := whatIf(p, sp)
		rr.times = append(rr.times, opTime{p.model + "/" + p.device, 1, cpuMsSince(t)})
		if err != nil {
			rr.failed++
			continue
		}
		if err := checkPair(reps); err != nil {
			return rr, checkf("%s on %s: %v", p.model, p.device, err)
		}
		if prev, ok := c.first[p]; ok {
			if err := checkSameTotals(prev, reps); err != nil {
				return rr, checkf("%s on %s: %v", p.model, p.device, err)
			}
		} else {
			c.first[p] = reps
		}
	}
	return rr, nil
}

// checkPair checks one pair's six reports against properties the method
// must have.
func checkPair(reps map[pask.Scheme]*pask.Report) error {
	for _, s := range pask.Schemes() {
		if reps[s] == nil {
			return fmt.Errorf("no %s report", s)
		}
	}
	ideal := reps[pask.Ideal]
	if ideal.Loads != 0 {
		return fmt.Errorf("Ideal loaded %d code objects, want 0", ideal.Loads)
	}
	for s, r := range reps {
		if r.Total < ideal.Total {
			return fmt.Errorf("%s (%v) faster than Ideal (%v)", s, r.Total, ideal.Total)
		}
		var sum time.Duration
		for _, d := range r.Breakdown {
			sum += d
		}
		if sum != r.Total {
			return fmt.Errorf("%s breakdown sums to %v, Total is %v", s, sum, r.Total)
		}
		if r.ReuseHits > r.ReuseQueries {
			return fmt.Errorf("%s: %d cache hits > %d queries", s, r.ReuseHits, r.ReuseQueries)
		}
	}
	if reps[pask.PaSK].Total > reps[pask.Baseline].Total {
		return fmt.Errorf("PaSK (%v) slower than Baseline (%v)", reps[pask.PaSK].Total, reps[pask.Baseline].Total)
	}
	return nil
}

func checkSameTotals(prev, cur map[pask.Scheme]*pask.Report) error {
	for s, r := range prev {
		if cur[s].Total != r.Total {
			return fmt.Errorf("%s Total %v on a later pass, %v on the first", s, cur[s].Total, r.Total)
		}
	}
	return nil
}

// checkSchemeOrder checks one profile's geometric-mean speedups over
// Baseline against the paper's Figs 6a and 8: NNV12 < PaSK < Ideal, and
// both ablations between Baseline and PaSK.
func checkSchemeOrder(speedup map[pask.Scheme]float64) error {
	nnv, pk, ideal := speedup[pask.NNV12], speedup[pask.PaSK], speedup[pask.Ideal]
	if !(nnv < pk && pk < ideal) {
		return fmt.Errorf("speedups NNV12 %.3f, PaSK %.3f, Ideal %.3f not in increasing order", nnv, pk, ideal)
	}
	for _, s := range []pask.Scheme{pask.PaSKI, pask.PaSKR} {
		if x := speedup[s]; x < 1 || x > pk {
			return fmt.Errorf("%s speedup %.3f outside [1, PaSK %.3f]", s, x, pk)
		}
	}
	return nil
}

func (c *coldstart) results() (map[string]float64, error) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var paskMs, speedups []float64
	n := float64(len(c.first))
	sums := map[string]float64{}
	var queries, hits, lookups float64
	for _, d := range coldstartDevices {
		ratios := map[pask.Scheme][]float64{}
		for _, p := range c.pairs {
			reps := c.first[p]
			if p.device != d || reps == nil {
				continue
			}
			for s, r := range reps {
				ratios[s] = append(ratios[s], float64(reps[pask.Baseline].Total)/float64(r.Total))
			}
		}
		speedup := map[pask.Scheme]float64{}
		for s, xs := range ratios {
			speedup[s] = geomean(xs)
		}
		if err := checkSchemeOrder(speedup); err != nil {
			return nil, checkf("%s: %v", d, err)
		}
	}
	for _, p := range c.pairs {
		reps := c.first[p]
		if reps == nil {
			continue
		}
		r := reps[pask.PaSK]
		paskMs = append(paskMs, ms(r.Total))
		speedups = append(speedups, float64(reps[pask.Baseline].Total)/float64(r.Total))
		sums["backend.loads"] += float64(r.Loads)
		sums["backend.loaded_mb"] += float64(r.LoadedBytes) / (1 << 20)
		sums["core.skipped_loads"] += float64(r.SkippedLoads)
		sums["virt.load_ms"] += ms(r.Breakdown[pask.CatLoad])
		sums["virt.exec_ms"] += ms(r.Breakdown[pask.CatExec])
		sums["virt.overhead_ms"] += ms(r.Breakdown[pask.CatOverhead])
		sums["virt.parse_ms"] += ms(r.Breakdown[pask.CatParse])
		queries += float64(r.ReuseQueries)
		hits += float64(r.ReuseHits)
		lookups += float64(r.Lookups)
	}
	out := map[string]float64{
		"virt_pask_ms":           geomean(paskMs),
		"virt_speedup_x":         geomean(speedups),
		"core.queries":           queries / n,
		"core.hits":              hits / n,
		"core.hit_rate":          hits / queries,
		"core.lookups_per_query": lookups / queries,
	}
	for k, v := range sums {
		out[k] = v / n
	}
	return out, nil
}

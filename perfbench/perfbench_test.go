package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"pask"
	"pask/internal/serving"
	"pask/internal/trace"
)

func TestLayerOfSyntheticStacks(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "pask/internal/codeobj.writePayload", "pask/internal/graphx.MaterializeModel", "pask.NewSystem", "main.whatIf"}, "codeobj"},
		{[]string{"runtime.mallocgc", "pask/internal/hip.(*Runtime).LoadModule", "pask/internal/core.(*Executor).Run"}, "backend"},
		{[]string{"pask/internal/cuda.(*Driver).Load"}, "backend"},
		{[]string{"pask/internal/onnx/zoo.Build.func1"}, "onnx"},
		{[]string{"pask/internal/serving.ServeFleetModels.func3", "pask/internal/sim.(*Env).Run"}, "serving"},
		{[]string{"pask/internal/backend.(*Registry[...]).Load"}, "backend"},
		{[]string{"pask/internal/unlisted.F"}, "other"},
		{[]string{"strings.Builder.Write", "pask.convertReport", "main.whatIf"}, "api"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.run", "main.main"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

func TestParseProfileAttributesSyntheticStacks(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove", "pask/internal/codeobj.writePayload", "pask/internal/hip.Load", "runtime.gcBgMarkWorker"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	// Sample 1 (packed): leaf location 1 inlines memmove into writePayload.
	p = p.bytes(2, pb{}.packed(1, 1, 2).packed(2, 1, 300))
	// Sample 2 (unpacked fields): hip counts as backend.
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 50))
	// Sample 3: no pask frame.
	p = p.bytes(2, pb{}.varint(1, 3).varint(2, 1).varint(2, 7))
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 10)).bytes(4, pb{}.varint(1, 11)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 12)))
	p = p.bytes(4, pb{}.varint(1, 3).bytes(4, pb{}.varint(1, 13)))
	for i, name := range []uint64{5, 6, 7, 8} {
		p = p.bytes(5, pb{}.varint(1, uint64(10+i)).varint(2, name))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	prof, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prof.byLayer("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"codeobj": 300, "backend": 50, "runtime": 7}
	if len(got) != len(want) || got["codeobj"] != 300 || got["backend"] != 50 || got["runtime"] != 7 {
		t.Errorf("cpu by layer = %v, want %v", got, want)
	}
	if _, err := prof.byLayer("alloc_space"); err == nil {
		t.Error("byLayer accepted a value type the profile lacks")
	}
	if _, err := parseProfile(p[:len(p)-3]); err == nil {
		t.Error("parseProfile accepted a truncated profile")
	}
}

var sink [][]byte

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	for range 64 {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(prof.types, "alloc_space") || len(prof.samples) == 0 {
		t.Fatalf("allocs profile: types %v, %d samples", prof.types, len(prof.samples))
	}
	framed := slices.ContainsFunc(prof.samples, func(s sample) bool { return len(s.frames) > 0 })
	if !framed {
		t.Error("no sample carries function names")
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, true},
		{10, 0.5, 5.5, true},
		{39, 0.5, 20, true},
		{39, 0.75, 30, false}, // below 40 samples only the median
		{40, 0.75, 30, true},  // 10 samples beyond
		{99, 0.9, 90, false},  // 9 beyond
		{100, 0.9, 90, true},  // 10 beyond
		{100, 0.99, 99, false},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("median of no samples reported")
	}
}

func TestMiddleMean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{100, 1, 2, 3}, 2.5}, // the outer quarters go
		{[]float64{1000, 4, 1, 3, 2, 5, 0}, (1 + 2 + 3 + 4 + 5) / 5.0}, // 7 samples keep 5
	} {
		if got := middleMean(tc.xs); got != tc.want {
			t.Errorf("middleMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// goodReports returns one pair's reports that pass checkPair.
func goodReports() map[pask.Scheme]*pask.Report {
	totals := map[pask.Scheme]time.Duration{
		pask.Baseline: 140, pask.NNV12: 120, pask.Ideal: 20, pask.PaSK: 30, pask.PaSKI: 90, pask.PaSKR: 100,
	}
	reps := map[pask.Scheme]*pask.Report{}
	for s, tot := range totals {
		r := &pask.Report{Scheme: s, Total: tot, Loads: 3, ReuseQueries: 5, ReuseHits: 4,
			Breakdown: map[pask.Category]time.Duration{pask.CatExec: 15, pask.CatLoad: tot - 15}}
		if s == pask.Ideal {
			r.Loads = 0
			r.Breakdown = map[pask.Category]time.Duration{pask.CatExec: tot}
		}
		reps[s] = r
	}
	return reps
}

func TestChecksRejectDoctoredResults(t *testing.T) {
	if err := checkPair(goodReports()); err != nil {
		t.Fatalf("checkPair rejected a valid pair: %v", err)
	}
	for name, doctor := range map[string]func(map[pask.Scheme]*pask.Report){
		"breakdown short of Total": func(r map[pask.Scheme]*pask.Report) { r[pask.PaSK].Breakdown[pask.CatLoad]-- },
		"Ideal loads":              func(r map[pask.Scheme]*pask.Report) { r[pask.Ideal].Loads = 1 },
		"scheme faster than Ideal": func(r map[pask.Scheme]*pask.Report) {
			r[pask.NNV12].Total = 10
			r[pask.NNV12].Breakdown[pask.CatLoad] = -5
		},
		"PaSK slower than Baseline": func(r map[pask.Scheme]*pask.Report) {
			r[pask.PaSK].Total = 150
			r[pask.PaSK].Breakdown[pask.CatLoad] = 135
		},
		"more hits than queries": func(r map[pask.Scheme]*pask.Report) { r[pask.PaSK].ReuseHits = 6 },
		"missing scheme":         func(r map[pask.Scheme]*pask.Report) { delete(r, pask.PaSKR) },
	} {
		reps := goodReports()
		doctor(reps)
		if checkPair(reps) == nil {
			t.Errorf("checkPair accepted a pair with %s", name)
		}
	}

	later := goodReports()
	if err := checkSameTotals(goodReports(), later); err != nil {
		t.Errorf("checkSameTotals rejected identical passes: %v", err)
	}
	later[pask.PaSKI].Total++
	if checkSameTotals(goodReports(), later) == nil {
		t.Error("checkSameTotals accepted a Total that changed between passes")
	}

	order := map[pask.Scheme]float64{pask.Baseline: 1, pask.NNV12: 1.2, pask.PaSKI: 1.5, pask.PaSKR: 1.4, pask.PaSK: 4, pask.Ideal: 7}
	if err := checkSchemeOrder(order); err != nil {
		t.Errorf("checkSchemeOrder rejected the paper's order: %v", err)
	}
	order[pask.PaSKR] = 4.5
	if checkSchemeOrder(order) == nil {
		t.Error("checkSchemeOrder accepted PaSK-R above PaSK")
	}

	fs := &serving.FleetStats{Stats: serving.Stats{Latencies: []time.Duration{5, 6, 7}, Shed: 1}}
	if err := checkFleet(fs, 4, 5); err != nil {
		t.Errorf("checkFleet rejected complete accounting: %v", err)
	}
	if checkFleet(fs, 5, 5) == nil {
		t.Error("checkFleet accepted a request lost from the accounting")
	}
	if checkFleet(fs, 4, 6) == nil {
		t.Error("checkFleet accepted a request faster than the hot floor")
	}

	env := []byte(`{"schema":1,"experiment":"x","result":{"a":1}}`)
	if checkEnvelope(nil, env) != nil || checkEnvelope(env, slices.Clone(env)) != nil {
		t.Error("checkEnvelope rejected a first or identical pass")
	}
	if checkEnvelope(env, []byte(`{"schema":1,"experiment":"x","result":{"a":2}}`)) == nil {
		t.Error("checkEnvelope accepted an envelope that differs between passes")
	}
}

func TestCheckChromeTrace(t *testing.T) {
	rec := trace.New()
	rec.Span("serving", "exec", "req", 0, time.Millisecond)
	var b bytes.Buffer
	if err := rec.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if err := checkChromeTrace(b.Bytes()); err != nil {
		t.Errorf("rejected an exported trace: %v", err)
	}
	for _, bad := range []string{`not json`, `{"traceEvents":[]}`, `{"traceEvents":[{"ph":"X"}]}`,
		`{"traceEvents":[{"name":"a","ph":"X","ts":1}]}`} {
		if checkChromeTrace([]byte(bad)) == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

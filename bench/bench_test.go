package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
)

// BENCHMARK.json at the repository root must say what the program says.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := catalogue(); !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with `bash bench/run.sh -list > BENCHMARK.json`")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Fatal("catalogue exceeds the benchmark contract's limits")
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q named twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// Every workload runs at the 32³ smoke scale, untraced and traced, and the
// document it produces names exactly the catalogue's metrics with their
// units.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				w, err := specFor(wl.Name, true)
				if err != nil {
					t.Fatal(err)
				}
				w.warmup, w.tracePrefix = 8, 16
				opts := runOptions{seed: 1, ops: 24, trace: traced, traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
				doc, err := runWorkload(context.Background(), w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !doc.Correct || doc.Failed != 0 || doc.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", doc.Correct, doc.Attempted, doc.Failed, doc.FirstError)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(doc.Metrics) != len(want) {
					t.Errorf("%d metrics reported, catalogue names %d", len(doc.Metrics), len(want))
				}
				for _, def := range want {
					mv, ok := doc.Metrics[def.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", def.Name)
					case mv.Unit != def.Unit:
						t.Errorf("metric %s has unit %q, catalogue says %q", def.Name, mv.Unit, def.Unit)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("metric %s is %v", def.Name, mv.Value)
					case !traced && mv.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", def.Name, mv.Value)
					}
				}
				if traced {
					checkSpanFile(t, opts.traceOut)
				}
			})
		}
	}
}

// Counts that should repeat exactly do: two traced runs of a single-caller
// workload with the same seed agree to the last bit on every metric named
// here, so a later change may rest a claim on them (as a count, not as a
// speed-up).
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("six traced runs")
	}
	exact := []string{
		"store.atoms_read_per_query", "store.read_bytes_per_query",
		"node.points_examined_per_query", "node.halo_atoms_per_query",
		"cache.hit_ratio", "cache.stores", "cache.evictions", "cache.resident_kb",
		"wire.frame_bytes_per_point", "wire.json_bytes_per_point", "wire.requests_per_query",
	}
	for _, name := range []string{wlColdScan, wlHitFrame, wlSessionJS} {
		t.Run(name, func(t *testing.T) {
			names := exact
			if name == wlHitFrame {
				// Frames carry no timings; the JSON bodies of the other
				// hops do, as decimal text whose length varies.
				names = append(names[:len(names):len(names)], "wire.user_bytes_per_point")
			}
			var docs [2]*document
			for i := range docs {
				w, err := specFor(name, true)
				if err != nil {
					t.Fatal(err)
				}
				w.warmup, w.tracePrefix = 8, 40
				opts := runOptions{seed: 2, trace: true, traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
				if docs[i], err = runWorkload(context.Background(), w, opts); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range names {
				a, b := docs[0].Metrics[m].Value, docs[1].Metrics[m].Value
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: %v on the first run, %v on the second", m, a, b)
				}
			}
		})
	}
}

// checkSpanFile re-reads the span file as a consumer would: every span of
// a query shares its id and every span but the root has a parent.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("span file is empty")
	}
	if err := checkSpanForest(spans); err != nil {
		t.Fatal(err)
	}
}

// A workload's op list is a function of its seed alone; these hashes pin
// it, so a change to a generator cannot move the benchmark's inputs
// unnoticed. A deliberate change updates them and re-measures the baseline.
func TestOpListGolden(t *testing.T) {
	golden := map[string][2]uint64{
		wlColdScan:  {0x3808bdded947d721, 0x3b2947a8cf17927f},
		wlHitFrame:  {0xdeb955a30302f79e, 0x7deb19981308941},
		wlSessionJS: {0xd2fea36d23b1268e, 0x1018d17b8d30f68c},
		wlTenants:   {0x4d64c41e6830b0c8, 0x1a563ba5d86801a0},
	}
	for _, wl := range workloads {
		w, err := specFor(wl.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range []int64{1, 2} {
			if got, want := opListHash(w, seed, 500), golden[wl.Name][i]; got != want {
				t.Errorf("%s seed %d: op list hash %#x, golden %#x", wl.Name, seed, got, want)
			}
		}
		if opListHash(w, 1, 500) == opListHash(w, 2, 500) {
			t.Errorf("%s: seeds 1 and 2 generate the same ops", wl.Name)
		}
	}
}

// The oracle check must bite: one value off by one ulp and one dropped
// point are both failures, and the untouched answer is not.
func TestOracleCheckBites(t *testing.T) {
	src, err := newSource(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := buildOracleClass(src, classKey{derived.Vorticity, 4, 0}, []float64{1e-2, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	thr := oc.thresholds[0]
	good := oc.expectThreshold(thr, grid.Box{})
	if len(good) < 100 {
		t.Fatalf("only %d points above the threshold", len(good))
	}
	if err := oc.checkThreshold(thr, grid.Box{}, good); err != nil {
		t.Fatalf("the oracle rejects its own answer: %v", err)
	}

	ulp := append([]query.ResultPoint(nil), good...)
	ulp[len(ulp)/2].Value = math.Float32frombits(math.Float32bits(ulp[len(ulp)/2].Value) + 1)
	if err := oc.checkThreshold(thr, grid.Box{}, ulp); err == nil {
		t.Error("a value one ulp off passed the check")
	}

	dropped := append(append([]query.ResultPoint(nil), good[:7]...), good[8:]...)
	if err := oc.checkThreshold(thr, grid.Box{}, dropped); err == nil {
		t.Error("a dropped point passed the check")
	}

	swapped := append([]query.ResultPoint(nil), good...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := oc.checkThreshold(thr, grid.Box{}, swapped); err == nil {
		t.Error("points out of Morton order passed the check")
	}

	pdf := append([]int64(nil), oc.pdf...)
	pdf[0]--
	pdf[1]++
	if err := oc.checkPDF(pdf); err == nil {
		t.Error("a PDF with one point in the wrong bin passed the check")
	}

	box := grid.Box{Lo: grid.Point{}, Hi: grid.Point{X: 16, Y: 16, Z: 16}}
	if err := oc.checkThreshold(thr, box, good); err == nil {
		t.Error("a whole-domain answer passed as the answer to a sub-box query")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of [1,2,4] = %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 110, 100, 125, 85, 105}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same runs", steady, steady, "lower", verdictUnchanged},
		{"within the bound", steady, scale(steady, 1.05), "lower", verdictUnchanged},
		{"slower beyond the bound", steady, scale(steady, 1.2), "lower", verdictWorse},
		{"faster on every run", steady, scale(steady, 0.8), "lower", verdictBetter},
		{"higher is better, and it is higher", steady, scale(steady, 1.2), "higher", verdictBetter},
		{"higher is better, and it fell", steady, scale(steady, 0.8), "higher", verdictWorse},
		{"spread wider than the bound", noisy, scale(noisy, 1.05), "lower", verdictUnresolved},
		{"noisy but every run beats every parent run", noisy, scale(noisy, 0.4), "lower", verdictBetter},
	} {
		if got := verdict(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

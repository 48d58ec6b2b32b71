package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 50}, {15, 50}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}} {
		if got := tailPercentile(tc.n); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The reported tail always has at least tailBeyond samples beyond
	// it once the sample supports a tail above the median.
	for _, n := range []int{20, 21, 37, 100, 101, 999, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		d := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond < tailBeyond || d.N != n {
			t.Errorf("n=%d: tail %v at p%.2f has %d samples beyond it, count %d", n, d.Tail, d.TailPct, beyond, d.N)
		}
	}
	d := summarize([]float64{5, 1, 3})
	if d.P50 != 3 || d.Tail != 3 || d.TailPct != 50 || d.N != 3 {
		t.Errorf("small sample: got %+v, want the median as the tail", d)
	}
	if d := summarize(nil); d != (dist{TailPct: 50}) {
		t.Errorf("empty sample: got %+v", d)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Overlapping children, as on parallel workers: [10,50] once.
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "run", Start: 90, End: 120},
		// A grandchild is its parent's child, not the pass's.
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45},
		// An unclosed span is ignored.
		{ID: 6, Parent: 1, Name: "run", Start: 60, End: -1},
	}
	computeSelf(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 0}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
	if got := selfShare(spans, "pass"); got != 0.5 {
		t.Errorf("selfShare(pass) = %v, want 0.5", got)
	}
}

func TestDigestComparesBitForBit(t *testing.T) {
	type out struct {
		Watts []float64
		Name  string
	}
	a := out{Watts: []float64{1.5, 0.1 + 0.2}, Name: "x"}
	b := out{Watts: []float64{1.5, 0.1 + 0.2}, Name: "x"}
	c := out{Watts: []float64{1.5, math.Nextafter(0.1+0.2, 1)}, Name: "x"}
	da, _ := digest(a)
	db, _ := digest(b)
	dc, _ := digest(c)
	if da != db || da == dc {
		t.Fatalf("digests: equal outputs %v, one-ulp change %v", da == db, da != dc)
	}
	var log digestLog
	for i, d := range []string{da, db, dc, da} {
		if ok := log.add(d); ok != (d == da) {
			t.Errorf("repetition %d: add = %v", i, ok)
		}
	}
	if log.reps != 4 || log.mismatches != 1 {
		t.Errorf("log = %+v, want 4 reps and 1 mismatch", log)
	}
}

func TestScheduleComesFromTheSeed(t *testing.T) {
	a, b, c := schedule(7, 300, 2), schedule(7, 300, 2), schedule(8, 300, 2)
	same := func(x, y []loadReq) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].due != y[i].due || string(x[i].body) != string(y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Fatalf("same seed equal: %v; other seed equal: %v", same(a, b), same(a, c))
	}
	// Open loop at 300/s for 2 s: about 600 requests.
	if len(a) < 500 || len(a) > 700 {
		t.Errorf("got %d requests, want about 600", len(a))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNameSyntax(t *testing.T) {
	for _, bad := range []string{"", "-lead", "has space", "semi;colon", "slash/name"} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
	}
	for _, m := range concat(endToEnd, perLayer) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with what this program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, here %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: end_to_end %d vs %d, per_layer %d vs %d",
			len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, here %+v", i, m, want)
		}
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, here %+v", i, m, want)
		}
	}
}

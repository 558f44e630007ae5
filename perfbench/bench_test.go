package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
)

func tinyConfig(t *testing.T, trace bool, seconds float64) runConfig {
	return runConfig{seed: 7, seconds: seconds, trace: trace, out: t.TempDir(), log: io.Discard}
}

// checkEmitted fails unless result r carries every metric of specs with
// its unit.
func checkEmitted(t *testing.T, o *outcome, specs []metricSpec) {
	t.Helper()
	r, err := buildResult(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(specs) {
		t.Fatalf("emitted %d metrics, want %d", len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("metric %s: got %+v, want unit %q", s.name, m, s.unit)
		}
	}
}

func TestPartitionWorkloadEmitsEveryMetric(t *testing.T) {
	w := partitionWorkload{"tiny-web", gen.FamilyWeb, 3000, 4, parhip.Social, 2, 0, 2}
	for _, trace := range []bool{false, true} {
		o, err := runPartition(tinyConfig(t, trace, 0.5), w)
		if err != nil {
			t.Fatal(err)
		}
		if o.tally.failed != 0 {
			t.Fatalf("trace=%v: %d of %d calls failed: %v", trace, o.tally.failed, o.tally.attempted, o.tally.reasons)
		}
		checkEmitted(t, o, endToEnd)
		if trace {
			checkEmitted(t, o, perLayer)
			if o.values["core.levels"] < 1 || o.values["sclp.supersteps"] < 1 {
				t.Errorf("traced run reports no coarsening work: %v", o.values)
			}
		}
	}
}

func TestLiveWorkloadEmitsEveryMetric(t *testing.T) {
	w := liveWorkload{"tiny-live", 4096, 4, 2, 20, 60, 100}
	o, err := runLive(tinyConfig(t, true, 3), w)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, o, endToEnd)
	checkEmitted(t, o, perLayer)
	if o.values["lookup_p50_us"] <= 0 || o.values["update_p50_ms"] <= 0 {
		t.Errorf("no latencies measured: %v", o.values)
	}
}

func TestCorruptedPartitionCountsAsFailed(t *testing.T) {
	g, err := gen.ByFamily(gen.FamilyWeb, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	res, err := partition(g, []parhip.Option{parhip.WithK(k), parhip.WithPEs(2)})
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, g.NumNodes())
	for v := range part {
		part[v] = res.Partition.Block(int32(v))
	}
	good, err := checkPartition(g, part, k, res.Cut)
	if err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}

	outOfRange := append([]int32(nil), part...)
	outOfRange[17] = k

	// Move nodes into block 0 until it weighs more than Lmax.
	overloaded := append([]int32(nil), part...)
	var w int64
	for v, b := range part {
		if b == 0 {
			w += g.NW[v]
		}
	}
	for v := range overloaded {
		if w > good.lmax {
			break
		}
		if overloaded[v] != 0 {
			overloaded[v] = 0
			w += g.NW[v]
		}
	}
	for name, bad := range map[string][]int32{"out of range": outOfRange, "over Lmax": overloaded} {
		var tl tally
		c, err := checkPartition(g, bad, k, res.Cut)
		if err == nil {
			// The cut changed with the corruption; report the recomputed
			// one so only the corruption itself can fail the check.
			_, err = checkPartition(g, bad, k, c.cut)
		}
		tl.record(err)
		if tl.failed != 1 || tl.attempted != 1 {
			t.Errorf("%s: counted %d failed of %d, want 1 of 1", name, tl.failed, tl.attempted)
		}
	}

	var tl tally
	_, err = checkPartition(g, part, k, res.Cut+1)
	tl.record(err)
	if tl.failed != 1 || !strings.Contains(tl.reasons[0], "reported cut") {
		t.Errorf("misreported cut not counted as failed: %+v", tl)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add(1, 0, "root", "bench", at(0), at(100))
	evs := []chromeEvent{
		{Ph: "X", Tid: 0, Name: "outer", Ts: 10_000, Dur: 50_000},
		{Ph: "X", Tid: 0, Name: "inner", Ts: 20_000, Dur: 10_000},
		{Ph: "X", Tid: 1, Name: "outer", Ts: 40_000, Dur: 50_000},
	}
	r.merge(1, root, "rank ", r.epoch, evs)
	got := map[string]nameStat{}
	for _, s := range r.summary() {
		got[s.name] = s
	}
	// root: 100 ms minus the union of both outer spans [10,90] ms.
	want := map[string]float64{"root": 20_000, "outer": 90_000, "inner": 10_000}
	for name, self := range want {
		if d := got[name].self - self; d > 1 || d < -1 {
			t.Errorf("%s self time %.0f us, want %.0f", name, got[name].self, self)
		}
	}
	for _, s := range r.spans {
		if s.Name == "inner" && r.spans[s.Parent-1].Name != "outer" {
			t.Errorf("inner span parented to %q", r.spans[s.Parent-1].Name)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json's metric lists in
// step with the metrics the benchmark emits.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		specs  []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(c.listed), len(c.specs))
		}
		for i, m := range c.listed {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], the benchmark emits %s [%s]",
					i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

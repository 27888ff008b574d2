package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"halo/internal/flowserve"
	"halo/internal/packet"
	"halo/internal/trafficgen"
)

// smallTable installs a few flows in a table, so that the workers' churn
// windows overlap their lookups often.
func smallTable(t *testing.T, flows int) (*population, []workerTrace, *flowserve.Table) {
	t.Helper()
	w := trafficgen.Generate(trafficgen.Scenario{Name: "test", Flows: flows, Rules: 1, Popularity: trafficgen.Uniform}, 7)
	pop := newPopulation(w)
	tbl, err := flowserve.New(flowserve.Config{Shards: 4, Entries: tableEntries(flows), KeyLen: packet.HeaderKeyLen})
	if err != nil {
		t.Fatal(err)
	}
	if err := install(tbl, pop, nil); err != nil {
		t.Fatal(err)
	}
	return pop, drawTraces(w, 7), tbl
}

func runSmall(pop *population, traces []workerTrace, tbl *flowserve.Table, dur time.Duration) *loadStats {
	workers := make([]*loadWorker, loadGoros)
	for i := range workers {
		workers[i] = newLoadWorker(i, pop, target{rd: tbl, wr: tbl}, traces[i], nil)
	}
	return runLoad(workers, now(), dur)
}

func TestChurnMissesAreNotFailures(t *testing.T) {
	pop, traces, tbl := smallTable(t, 64)
	st := runSmall(pop, traces, tbl, 300*time.Millisecond)
	if st.churns == 0 {
		t.Fatal("no churn ran")
	}
	if st.failed() != 0 {
		t.Fatalf("%d of %d operations failed with churn only (%d churn-excused misses)", st.failed(), st.attempted(), st.churnMisses)
	}
	t.Logf("%d lookups, %d churns, %d churn-excused misses", st.lookups, st.churns, st.churnMisses)
}

func TestLossesAreFailures(t *testing.T) {
	const lost = 5
	for _, tc := range []struct {
		name     string
		sabotage func(tbl *flowserve.Table, key []byte)
	}{
		{"deleted behind the generator's back", func(tbl *flowserve.Table, key []byte) { tbl.Delete(key) }},
		{"wrong value", func(tbl *flowserve.Table, key []byte) { tbl.Update(key, 1<<40) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pop, traces, tbl := smallTable(t, 64)
			// Churn another flow of the same partition instead, so only
			// lookups can see the loss.
			for _, tr := range traces {
				for i, fi := range tr.churn {
					if fi == lost {
						tr.churn[i] = lost + loadGoros
					}
				}
			}
			tc.sabotage(tbl, pop.key(lost))
			st := runSmall(pop, traces, tbl, 100*time.Millisecond)
			if st.failedLooks == 0 || st.failedOps != 0 {
				t.Fatalf("%d failed lookups, %d failed churn writes; want lookups only", st.failedLooks, st.failedOps)
			}
		})
	}
}

func TestExcused(t *testing.T) {
	pop := &population{gen: make([]atomic.Uint32, 1), churnEnd: make([]atomic.Int64, 1)}
	pop.churnEnd[0].Store(100)
	for _, tc := range []struct {
		gen     uint32
		t0      int64
		excused bool
	}{
		{gen: 2, t0: 101, excused: false}, // window closed before the lookup
		{gen: 2, t0: 100, excused: true},  // window closed during the lookup
		{gen: 3, t0: 500, excused: true},  // window open now
	} {
		pop.gen[0].Store(tc.gen)
		if got := pop.excused(0, tc.t0); got != tc.excused {
			t.Errorf("gen %d, t0 %d: excused = %v, want %v", tc.gen, tc.t0, got, tc.excused)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want) > want/128 {
			t.Errorf("quantile(%v) = %v, want %v within 1/128", q, got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range specs {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, ms []metric) {
		if len(got) != len(ms) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(ms))
			return
		}
		for i, m := range ms {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestCalibrators checks that memprobe finds the values of its keys, so it
// does a table's memory work, and that sockecho echoes without error and
// shuts down cleanly.
func TestCalibrators(t *testing.T) {
	const n = 4096
	m := newMemProbe(n)
	found := 0
	for i := 0; i < n; i++ {
		k := m.key(i)
		if m.probe(k, probeHash(k)) == uint64(i)+1 {
			found++
		}
	}
	// A key whose two buckets are both full is left out.
	if found < n-n/1000 {
		t.Errorf("memprobe found %d of %d keys", found, n)
	}
	s, err := newSockEcho()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []calibrator{m, s} {
		if cs := calibrate(c, 20*time.Millisecond); cs.wallNs <= 0 || cs.cpuNs <= 0 {
			t.Errorf("%s: calibration slice measured %+v", c.name(), cs)
		}
		if err := c.close(); err != nil {
			t.Errorf("%s: %v", c.name(), err)
		}
	}
}

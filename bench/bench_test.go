package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, with the output
// check, and holds the harness to BENCHMARK.json: the same workloads with the
// same reasons, and every named metric reported, finite, in the named unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm contract
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bm.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			if w.tcp && testing.Short() {
				t.Skip("TCP and fsync")
			}
			for _, traced := range []bool{false, true} {
				want := bm.EndToEnd
				if traced {
					want = bm.PerLayer
				}
				res := runWorkload(w, 1, 300*time.Millisecond, traced, t.TempDir())
				if res.err != nil {
					t.Fatal(res.err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d runs failed", traced, res.failed, res.attempted)
				}
				if len(res.metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json names %d", traced, len(res.metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.get(m.Name)
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s = %v (reported: %v)", traced, m.Name, v, ok)
					}
				}
				for _, m := range res.metrics {
					for _, n := range want {
						if n.Name == m.name && n.Unit != m.unit {
							t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.name, m.unit, n.Unit)
						}
					}
				}
			}
		})
	}
}

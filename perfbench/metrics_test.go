package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// this command prints in step: same names, same units, same order.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []namedUnit) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the command prints %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command knows %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the command %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestWorkloadsRenderFromTheSeed checks that inputs depend on the seed
// alone and that every gateway capture holds its packets where the
// placement rules put them.
func TestWorkloadsRenderFromTheSeed(t *testing.T) {
	a, err := newWorkload("gateway-sparse", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newWorkload("gateway-sparse", 7, true)
	c, _ := newWorkload("gateway-sparse", 8, true)
	if a.pool[3].iq[1000] != b.pool[3].iq[1000] || a.pool[3].packets[0].Offset != b.pool[3].packets[0].Offset {
		t.Error("the same seed rendered different inputs")
	}
	if a.pool[3].packets[0].Offset == c.pool[3].packets[0].Offset {
		t.Error("different seeds rendered the same packet placement")
	}
	half := maxPacket(a) / 2
	for k, in := range a.pool {
		want := 2 + k%2
		if len(in.packets) != want {
			t.Fatalf("capture %d holds %d packets, want %d", k, len(in.packets), want)
		}
		first, last := in.packets[0], in.packets[len(in.packets)-1]
		if gap := in.packets[1].Offset - first.Offset; gap < 2*maxPacket(a) {
			t.Errorf("capture %d: packets only %d samples apart; their segments could merge", k, gap)
		}
		if end := last.Offset + last.Length + 3*half; end > captureLen-half {
			t.Errorf("capture %d: last segment ends at %d, past the hold-back line %d", k, end, captureLen-half)
		}
	}
	if _, err := newWorkload("gateway-dense", 1, false); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/model"
)

// smokeLayers are small layers that keep the self-check quick under
// both criteria.
var smokeLayers = []string{"resnet18_L12", "yolo9000_L11"}

func smokeRun(workload string, trace bool) *run {
	return &run{workload: workload, seed: 7, seconds: 1, trace: trace, refDir: "../results",
		layers: smokeLayers, start: time.Now(), log: os.Stderr}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for one kind ("end_to_end" or "per_layer").
func benchmarkMetrics(t *testing.T, kind string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b[kind], &metrics); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range metrics {
		out[m.Name] = m.Unit
	}
	return out
}

// TestEveryMetricPrinted runs each workload briefly, untraced and
// traced, and requires exactly the metrics BENCHMARK.json declares,
// with their units, and no failed check.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the optimizer")
	}
	for _, kind := range []string{"end_to_end", "per_layer"} {
		want := benchmarkMetrics(t, kind)
		for workload := range runners {
			r := smokeRun(workload, kind == "per_layer")
			res, err := r.execute()
			if err != nil {
				t.Fatalf("%s %s: %v", workload, kind, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", workload, kind, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s %s: %d metrics, BENCHMARK.json declares %d", workload, kind, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s %s: metric %s = %+v, want unit %s", workload, kind, name, got, unit)
				}
			}
		}
	}
}

// TestCorruptReferenceCounted shows that the oracle bites: with one
// reference value altered, the design for that layer fails its check
// in every workload, and the failure reaches ok_frac.
func TestCorruptReferenceCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the optimizer")
	}
	for workload := range runners {
		r := smokeRun(workload, false)
		r.corrupt = func(ref *reference) {
			ref.energyPJPerMAC[smokeLayers[0]] = "0.000"
			ref.ipc[smokeLayers[0]] = "0.000"
		}
		res, err := r.execute()
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: corrupted reference not counted: correct=%v failed=%d ok_frac=%v",
				workload, res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
		}
	}
}

// TestDesignFault covers the oracle's independent re-evaluation: a
// design whose report was tampered with no longer agrees with a fresh
// evaluation of its mapping.
func TestDesignFault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the optimizer")
	}
	r := smokeRun("table2-energy", false)
	in, err := r.newInputs()
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := sweep(context.Background(), in, model.MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if f := designFault(r.ref, model.MinEnergy, in.layers[0], res[0]); f != "" {
		t.Fatalf("untouched design: %s", f)
	}
	rep := *res[0].Best.Report
	rep.IPC *= 1.01
	res[0].Best.Report = &rep
	if f := designFault(r.ref, model.MinEnergy, in.layers[0], res[0]); f == "" {
		t.Fatal("tampered IPC passed the re-evaluation")
	}
}

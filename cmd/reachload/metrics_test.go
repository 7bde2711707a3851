package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// contract is BENCHMARK.json's shape.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workloads.go together: the driver reads the file, the
// program prints from the tables, and a name, unit or workload in one but
// not the other fails the driver's run.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"cmd/reachload", "benchmark"},
		RunSeconds: 15,
	}
	for _, w := range workloadList {
		want.Workloads = append(want.Workloads, map[string]any{"name": w.name, "why": w.why})
	}
	for _, m := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, map[string]any{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, map[string]any{"name": m.name, "unit": m.unit, "better": m.better})
	}
	wantJSON, _ := json.MarshalIndent(want, "", "  ")

	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nBENCHMARK.json should be:\n%s", err, wantJSON)
	}
	var got contract
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json does not match the tables in metrics.go / workloads.go; it should be:\n%s", wantJSON)
	}
}

// TestContractLimits checks the tables against the limits the benchmark
// contract puts on names, units and reasons.
func TestContractLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloadList); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	for _, w := range workloadList {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !unitRE.MatchString(m.unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s: better is %q", m.name, m.better)
			}
		}
	}
	for _, m := range perLayer {
		check(m.name)
	}
}

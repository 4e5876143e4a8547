package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/serve"
)

// sequenceBytes flattens a plan's request sequences and decision sample.
func sequenceBytes(p *plan) []byte {
	var b bytes.Buffer
	for _, ph := range p.phases {
		for _, seq := range ph {
			for _, r := range seq {
				b.Write(r.body)
				b.WriteByte('\n')
			}
		}
	}
	for _, i := range p.sample {
		b.Write(p.combos[i].appendJSON(nil))
	}
	return b.Bytes()
}

func TestSequencesAreSeeded(t *testing.T) {
	for _, s := range specs {
		a := sequenceBytes(newPlan(s, 7))
		b := sequenceBytes(newPlan(s, 7))
		c := sequenceBytes(newPlan(s, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different sequences", s.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same sequence", s.name)
		}
	}
}

// TestRequestsDecode checks that the benchmark's own encoder writes
// requests the service's types read back field for field.
func TestRequestsDecode(t *testing.T) {
	for _, s := range specs {
		p := newPlan(s, 3)
		req := p.phases[0][0][0]
		var got []serve.PredictRequest
		if s.batch > 1 {
			var br serve.BatchRequest
			if err := json.Unmarshal(req.body, &br); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			got = br.Requests
		} else {
			var r serve.PredictRequest
			if err := json.Unmarshal(req.body, &r); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			got = []serve.PredictRequest{r}
		}
		if len(got) != len(req.items) {
			t.Fatalf("%s: %d items decoded, %d sent", s.name, len(got), len(req.items))
		}
		for j, i := range req.items {
			c := p.combos[i]
			want := serve.PredictRequest{Model: c.Model, Bench: c.Bench, Vertices: c.V,
				Edges: c.E, MaxDegree: c.Deg, Diameter: c.Dia}
			if !reflect.DeepEqual(got[j], want) {
				t.Errorf("%s: item %d decoded as %+v, want %+v", s.name, j, got[j], want)
			}
		}
	}
}

// TestColdBatchGridIsFull checks that the cold-batch pool reaches every
// one of the 131,769 discretized cells, each in the level it names.
func TestColdBatchGridIsFull(t *testing.T) {
	if gridCells != 131769 {
		t.Fatalf("grid has %d cells", gridCells)
	}
	seen := make(map[feature.BinaryKey]bool, gridCells)
	for idx := 0; idx < gridCells; idx++ {
		c := gridCombo(idx)
		f, err := serve.ResolveFeatures(&serve.PredictRequest{Bench: c.Bench, Vertices: c.V,
			Edges: c.E, MaxDegree: c.Deg, Diameter: c.Dia}, feature.DiscretizationStep)
		if err != nil {
			t.Fatal(err)
		}
		rest := idx
		for k := 3; k >= 0; k-- {
			want := float64(rest%levels) / (levels - 1)
			rest /= levels
			if got := f.I()[k]; got < want-1e-9 || got > want+1e-9 {
				t.Fatalf("cell %d: I%d = %g, want %g", idx, k+1, got, want)
			}
		}
		seen[f.Binary()] = true
	}
	if len(seen) != gridCells {
		t.Fatalf("pool reaches %d distinct cells, want %d", len(seen), gridCells)
	}
}

func TestDecisionSlowdown(t *testing.T) {
	o := newOracle()
	limits := o.pair.Limits()
	p := newPlan(specs[0], 1)
	v := newValidator(p)
	for _, i := range p.sample[:8] {
		e, err := v.expect(i)
		if err != nil {
			t.Fatal(err)
		}
		c := o.cell(e.feat)
		var best config.M
		for _, m := range o.cands {
			if o.cost(c.job, m) == c.cost {
				best = m
				break
			}
		}
		if got := o.slowdown(e.feat, best); got != 1 {
			t.Errorf("%s: exhaustive best scores %v, want exactly 1", e.key, got)
		}
		wrong := best.ForceAccelerator(best.Accelerator.Other(), limits)
		if got := o.slowdown(e.feat, wrong); !(got > 1) {
			t.Errorf("%s: the wrong accelerator scores %v, want > 1", e.key, got)
		}
		if got := geomean([]float64{1, o.slowdown(e.feat, wrong)}); !(got > 1) {
			t.Errorf("%s: geometric mean with one wrong choice is %v", e.key, got)
		}
	}
	if g := geomean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("geomean of ones = %v", g)
	}
}

func TestValidatorRejects(t *testing.T) {
	p := newPlan(specs[1], 1) // cold-batch: tree and deep items
	v := newValidator(p)
	var treeItem int32 = -1
	for i, c := range p.combos {
		if c.Model == "tree" {
			treeItem = int32(i)
			break
		}
	}
	e, err := v.expect(treeItem)
	if err != nil {
		t.Fatal(err)
	}
	good := answer{Model: "tree", Version: 1, Key: e.key, M: e.treeM}
	if err := v.check(treeItem, &good); err != nil {
		t.Fatalf("the in-process tree answer was rejected: %v", err)
	}
	bad := []answer{
		{Model: "tree", Version: 1, Key: "0,0", M: e.treeM},
		{Model: "deep", Version: 1, Key: e.key, M: e.treeM},
		{Model: "tree", Version: 1, Key: e.key, M: e.treeM.ForceAccelerator(e.treeM.Accelerator.Other(), v.limits)},
		{Model: "tree", Version: 1, Key: e.key, M: config.M{}},
	}
	for i, a := range bad {
		if err := v.check(treeItem, &a); err == nil {
			t.Errorf("bad answer %d accepted", i)
		}
	}

	// One version must give one key one M: the answer that changes it
	// fails, and so does a change back.
	var deepItem int32 = -1
	for i, c := range p.combos {
		if c.Model == "" {
			deepItem = int32(i)
			break
		}
	}
	e, err = v.expect(deepItem)
	if err != nil {
		t.Fatal(err)
	}
	m1 := config.DefaultGPU(v.limits)
	m2 := config.DefaultMulticore(v.limits)
	for i, step := range []struct {
		version uint64
		m       config.M
		ok      bool
	}{{7, m1, true}, {7, m1, true}, {7, m2, false}, {7, m2, true}, {7, m1, false}, {8, m2, true}} {
		a := answer{Model: "deep", Version: step.version, Key: e.key, M: step.m}
		if err := v.check(deepItem, &a); (err == nil) != step.ok {
			t.Errorf("answer %d: err = %v, want ok = %v", i, err, step.ok)
		}
	}
}

// TestCheckerRejectsChangeBack drives the connection checker the live
// loop uses: a body it has already validated must still go through the
// one-key-one-M check, so a flapping answer fails on every change.
func TestCheckerRejectsChangeBack(t *testing.T) {
	p := newPlan(specs[0], 1) // hot-direct: single requests, memoized
	v := newValidator(p)
	req := p.phases[0][0][0]
	e, err := v.expect(req.items[0])
	if err != nil {
		t.Fatal(err)
	}
	body := func(m config.M, trace string) []byte {
		b, err := json.Marshal(struct {
			Model   string   `json:"model"`
			Version uint64   `json:"version"`
			Key     string   `json:"key"`
			M       config.M `json:"m"`
			TraceID string   `json:"trace_id"`
		}{"deep", 7, e.key, m, trace})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	m1 := config.DefaultGPU(v.limits)
	m2 := config.DefaultMulticore(v.limits)
	chk := v.checker()
	for i, step := range []struct {
		m  config.M
		ok bool
	}{{m1, true}, {m1, true}, {m2, false}, {m1, false}, {m1, true}, {m2, false}, {m2, true}} {
		_, err := chk.response(req, body(step.m, fmt.Sprintf("t%d", i)))
		if (err == nil) != step.ok {
			t.Errorf("answer %d: err = %v, want ok = %v", i, err, step.ok)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// benchmark description at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json declares %v", err)
		}
	}
	check := func(kind string, code []metricDef, decl []struct{ Name, Unit string }) {
		if len(code) != len(decl) {
			t.Errorf("%s: %d metrics in code, %d declared", kind, len(code), len(decl))
			return
		}
		for i := range code {
			if code[i].name != decl[i].Name || code[i].unit != decl[i].Unit {
				t.Errorf("%s %d: code %v, declared %v", kind, i, code[i], decl[i])
			}
		}
	}
	check("end_to_end", e2eMetrics, b.EndToEnd)
	check("per_layer", layerMetrics, b.PerLayer)
}

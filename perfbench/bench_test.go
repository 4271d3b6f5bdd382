package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"dana"
)

// Every workload's inputs are a pure function of the seed.
func TestGeneratorsDeterministicInSeed(t *testing.T) {
	if a, b := tenantBatches(7), tenantBatches(7); !reflect.DeepEqual(a, b) {
		t.Fatal("tenantBatches(7) differs between calls")
	}
	if a, b := tenantBatches(7), tenantBatches(8); reflect.DeepEqual(a, b) {
		t.Fatal("tenantBatches ignores its seed")
	}
	batches := tenantBatches(7)
	last := 0.0
	for _, specs := range batches {
		for _, sp := range specs {
			if sp.ArriveSec < last {
				t.Fatalf("virtual arrivals not monotone across batches: %v after %v", sp.ArriveSec, last)
			}
			last = sp.ArriveSec
		}
	}
	s1, r1 := insertSchedule(7, "t", 55, 3)
	s2, r2 := insertSchedule(7, "t", 55, 3)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("insertSchedule(7) differs between calls")
	}
	if s3, _ := insertSchedule(8, "t", 55, 3); reflect.DeepEqual(s1, s3) {
		t.Fatal("insertSchedule ignores its seed")
	}
}

// One pass of each workload, run twice from the same seed, yields the
// same modeled digest and passes its own checks.
func TestPassDigestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg := runConfig{seed: 3, workers: 1}
	for _, w := range workloads {
		var digests [2]uint64
		for i := range digests {
			p := w.newPass(cfg, nil)
			if err := p.setup(); err != nil {
				t.Fatalf("%s: setup: %v", w.name, err)
			}
			rec := &recorder{}
			if err := p.run(rec); err != nil {
				t.Fatalf("%s: run: %v", w.name, err)
			}
			if rec.failed != 0 {
				t.Errorf("%s: %d failed checks, first: %s", w.name, rec.failed, rec.failures[0])
			}
			digests[i] = rec.digest.sum()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %016x then %016x", w.name, digests[0], digests[1])
		}
	}
}

// The stale-frame probe runs and reports what it found.
func TestStaleFrameProbe(t *testing.T) {
	note, err := staleFrameProbe(runConfig{seed: 3, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "reproduced") {
		t.Fatalf("note %q", note)
	}
	t.Log(note)
}

// The traced replay reproduces each training workload's query counters
// exactly: engine, Strider and pool, on one small op of each.
func TestReplayMatchesQuery(t *testing.T) {
	cases := []struct {
		name      string
		spec      tableSpec
		poolBytes int64
		cold      bool
		insert    bool
	}{
		{"train-hot", tableSpec{workload: "Netflix", scale: 0.002, merge: 1, epochs: 3}, 256 << 20, false, false},
		{"scan-cold", coldTable, coldFrames * pageSize, true, false},
		{"ingest-train", tableSpec{workload: "Remote Sensing LR", scale: 0.002, merge: 64, epochs: 2}, 256 << 20, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lay := &layers{}
			s, err := openSession(dana.Config{PageSize: pageSize, PoolBytes: c.poolBytes, Workers: 2}, lay)
			if err != nil {
				t.Fatal(err)
			}
			udf, table, err := s.load(c.spec, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.mirrorTable(table); err != nil {
				t.Fatal(err)
			}
			rel, err := s.eng.Catalog().Table(table)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 3; op++ {
				if c.cold {
					if err := s.eng.ColdCache(); err != nil {
						t.Fatal(err)
					}
					if err := s.rp.dropCaches(); err != nil {
						t.Fatal(err)
					}
				}
				if c.insert && op > 0 {
					stmts, rows := insertSchedule(int64(op), table, rel.Schema.NumCols(), 1)
					rec := &recorder{}
					if _, err := s.insert(rec, table, stmts[0], rows[0]); err != nil {
						t.Fatal(err)
					}
					if rec.failed != 0 {
						t.Fatalf("insert: %s", rec.failures[0])
					}
				}
				top, err := s.trainTimed(udf, table, false)
				if err != nil || top.err != nil {
					t.Fatalf("train: %v %v", err, top.err)
				}
				out, err := s.rp.train(s.eng.Catalog(), udf, table, top.res.Epochs)
				if err != nil {
					t.Fatal(err)
				}
				if err := compareReplay("op", top.res.Engine, top.res.Access, top.pool, top.res.Model, out); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if top.res.Access.Pages == 0 || out.engine.Cycles == 0 {
					t.Fatalf("op %d replayed nothing: %+v", op, out)
				}
			}
		})
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// prints, with the units it prints them in.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
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
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, want []struct{ Name, Unit string }, order []string, got map[string]metric) {
		if len(want) != len(order) || len(got) != len(order) {
			t.Errorf("%s: BENCHMARK.json lists %d, program orders %d and prints %d", kind, len(want), len(order), len(got))
		}
		for i, m := range want {
			if i < len(order) && order[i] != m.Name {
				t.Errorf("%s %d: BENCHMARK.json %q, program %q", kind, i, m.Name, order[i])
			}
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s %q: BENCHMARK.json unit %q, program prints %+v", kind, m.Name, m.Unit, g)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames, endToEnd(&hostAgg{}, modeled{}))
	check("per_layer", spec.PerLayer, perLayerNames, (&layers{}).metrics())
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the self-check compares against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every declared workload briefly, bare and traced, and
// checks that each run is correct, fails no operation, and prints
// exactly the declared metrics with their declared units. A traced run
// also validates its span tree (run fails on a malformed one).
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			o := options{workload: w.Name, seed: 7, seconds: 2, trace: trace, work: t.TempDir()}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestIncrementalRepeats runs the incremental workload twice on the same
// seed: every pass both runs completed must upload exactly the same
// bytes, which the dedup gate has already matched to the offline figure.
func TestIncrementalRepeats(t *testing.T) {
	var passes [2][]int64
	for i := range passes {
		o := options{workload: "incremental", seed: 3, seconds: 3}
		rep, err := measure(o, workloads["incremental"], t.TempDir(), o.seconds, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.t.correct() {
			t.Fatalf("run %d failed its checks: %v", i, rep.t.errs)
		}
		passes[i] = rep.t.passUploads
	}
	n := min(len(passes[0]), len(passes[1]))
	if n == 0 {
		t.Fatal("no pass completed")
	}
	for p := 0; p < n; p++ {
		if passes[0][p] != passes[1][p] {
			t.Errorf("pass %d uploaded %d bytes, then %d", p, passes[0][p], passes[1][p])
		}
	}
}

// TestCheckSpans pins the span-tree check on hand-built trees.
func TestCheckSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("a.n0.t0", "ckpt")
	tr.leaf("a.n0.t0", "rpc.commit", time.Now(), time.Now())
	tr.end("a.n0.t0", root)
	if err := tr.checkSpans(); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	tr.leaf("b.n0.t0", "rpc.commit", time.Now(), time.Now())
	if err := tr.checkSpans(); err == nil {
		t.Fatal("RPC span without a checkpoint root accepted")
	}
}

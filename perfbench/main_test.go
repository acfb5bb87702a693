package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// testWork is each workload's work in the self-test: the smallest run that
// still reaches every code path.
var testWork = map[string]int{"soak": 60, "metro": 1, "city": 1}

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsMatchBenchmarkFile pins the workload list to BENCHMARK.json.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var names []string
	for _, w := range readBenchmarkFile(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Fatalf("program workloads %s, BENCHMARK.json lists %s", got, want)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload untraced and traced
// at its self-test size and checks that the result line carries exactly
// the metrics BENCHMARK.json names, with their units, and that every
// output check ran and passed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			cfg := config{seed: 1, trace: traced, outDir: t.TempDir(), work: testWork[name]}
			wl := workloads[name]
			res, err := runWorld(wl, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			t.Logf("%s traced=%v: digest %s", name, traced, res.Digest)
			var report, line bytes.Buffer
			res.writeReport(&report)
			if err := writeJSON(&line, res); err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &out); err != nil {
				t.Fatalf("%s traced=%v: result line %q: %v", name, traced, line.String(), err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", name, traced, out.Correct, out.Failed, out.Attempted, report.String())
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			checks := map[string]bool{}
			for _, c := range res.Checks() {
				checks[c.Name] = true
			}
			for _, c := range wantChecks(traced) {
				if !checks[c] {
					t.Errorf("%s traced=%v: check %s never ran", name, traced, c)
				}
			}
		}
	}
}

// wantChecks lists the output checks a run must make.
func wantChecks(traced bool) []string {
	cs := []string{"checkpoint_stable", "checkpoint_roundtrip", "digest_pin"}
	if traced {
		cs = append(cs, "replay_medium_config", "replay_equal", "service_equivalence")
	}
	return cs
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "soak", "--seconds", "0"},
		{"--workload", "soak", "--trace", "2"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

// TestSelfTimeAndTransport checks the trace arithmetic on a hand-built
// trace: a request whose service span covers part of its client span, and
// a step span with one round child.
func TestSelfTimeAndTransport(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Req: 1, Name: "client.step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "service.step", Start: 10, End: 70},
		{ID: 3, Name: "spec.World.StepVRound", Start: 200, End: 300},
		{ID: 4, Parent: 3, Name: "sim.round", Start: 200, End: 290},
	}}
	self := map[string]float64{}
	for _, st := range tr.selfTimes() {
		self[st.Name] = st.Self * 1e9
	}
	for name, want := range map[string]float64{"client.step": 40, "service.step": 60, "spec.World.StepVRound": 10, "sim.round": 90} {
		if got := self[name]; got < want-1e-6 || got > want+1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", name, got, want)
		}
	}
	if got := tr.transport("step"); len(got) != 1 || got[0]*1e9 < 40-1e-6 || got[0]*1e9 > 40+1e-6 {
		t.Errorf("transport = %v, want [40ns]", got)
	}
}

// Command perfbench is the repository's benchmark. It drives one named
// workload through the public API — spec.Parse/spec.Build and World,
// checkpoint, and in traced runs an in-process service.Service on a
// loopback listener — prints every metric by name with its unit, checks
// the outputs, and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload soak --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn, each ending with its own
// result line.
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans around the calls into each layer and reports the
// per-layer metrics, the self time per span and the trace overhead. The
// work a run does is a fixed function of --seconds (see workload.perSecond),
// so two commits always measure the same work. The exit code is non-zero
// if any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"vinfra/internal/spec"
)

// gomaxprocs is the parallelism every workload runs at; no workload uses
// more threads or connections than this.
const gomaxprocs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all (each in turn)")
	seed := fs.Int64("seed", 1, "seed; becomes spec.seed (fault seeds derive from it)")
	secs := fs.Int("seconds", 10, "run length: the run does this many seconds of the workload's nominal work")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out-dir", "", "directory for the traced run's spans (default: a temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	_, known := workloads[names[0]]
	if !known || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(min(gomaxprocs, runtime.NumCPU()))
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, outDir: *outDir}
	if cfg.outDir == "" {
		dir, err := os.MkdirTemp("", "perfbench")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.outDir = dir
	}
	code := 0
	for _, n := range names {
		wl := workloads[n]
		res, err := runWorld(wl, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		res.writeReport(stdout)
		if err := writeJSON(stdout, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if _, failed := res.totals(); failed > 0 {
			code = 1
		}
	}
	return code
}

// writeJSON prints the one-line result the last line of output carries.
func writeJSON(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := res.totals()
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
	// work, when positive, replaces the seconds-derived work (the
	// self-test's short runs).
	work int
}

// workFor is the run's work: vrounds stepped in the measured window.
func (c config) workFor(wl *workload) int {
	if c.work > 0 {
		return c.work
	}
	return max(1, int(float64(c.seconds)*wl.perSecond))
}

// writeTrace writes the traced run's spans out and keeps them on the
// result for the self-time table.
func (c config) writeTrace(tr *tracer, res *result) error {
	res.tracer = tr
	path := filepath.Join(c.outDir, "traces", fmt.Sprintf("%s-seed%d.csv.gz", res.Workload, res.Seed))
	return tr.writeFile(path)
}

// workload is one named set of inputs.
type workload struct {
	name string
	// spec returns the world the workload drives for a seed.
	spec func(seed int64) spec.Spec
	// perSecond is the work one second of --seconds stands for: vrounds
	// at the workload's nominal rate on the reference box (2 vCPUs,
	// GOMAXPROCS=2). Fixing the work, not the wall time, keeps the
	// simulated state — and so checkpoint size and monitor growth — the
	// same on every commit.
	perSecond float64
	// warmup vrounds run before the measured window.
	warmup int
	// setupReps, ckptReps and resumeReps are the repetitions behind
	// setup_s, checkpoint_s and resume_s. The checkpoint and resume
	// repetitions span a second or more and enough collections that
	// blockMedian's blocks each carry their share of them.
	setupReps, ckptReps, resumeReps int
	// Every scrapeEvery-th vround is followed by scrapeReps reads.
	scrapeEvery, scrapeReps int
	// probeSteps is how many 1-vround step requests the traced run's
	// service probe sends.
	probeSteps int
}

// horizon is every workload's spec horizon: far beyond any run, so the
// service never clamps a step.
const horizon = 10_000_000

func counterWorld(seed int64, grid, listeners int, eng spec.Engine) spec.Spec {
	return spec.Spec{
		Version: spec.Version,
		Seed:    seed,
		VRounds: horizon,
		Grid:    spec.Grid{Cols: grid, Rows: grid},
		Devices: spec.Devices{Replicas: 3, Pingers: true, Listeners: listeners},
		Engine:  eng,
		Leader:  "fixed",
	}
}

var workloads = map[string]*workload{
	// Time goes into the vi emulator, cha per-node code and vi.Monitor
	// state that grows with the horizon; the radio carries about one
	// transmission per round, so radio/geo/parallel changes bypass it.
	"soak": {
		name: "soak",
		spec: func(seed int64) spec.Spec {
			return counterWorld(seed, 5, 0, spec.Engine{})
		},
		perSecond: 1600, warmup: 100, setupReps: 61, ckptReps: 80, resumeReps: 81,
		scrapeEvery: 50, scrapeReps: 3, probeSteps: 200,
	},
	// The E11–E13 parallel grid stack: engine workers plus radio
	// receiver sharding — the one workload on the non-sharded parallel
	// mechanism.
	"metro": {
		name: "metro",
		spec: func(seed int64) spec.Spec {
			return counterWorld(seed, 7, 8000, spec.Engine{Workers: 2})
		},
		perSecond: 5, warmup: 1, setupReps: 31, ckptReps: 151, resumeReps: 121,
		scrapeEvery: 1, scrapeReps: 5, probeSteps: 5,
	},
	// Delivery, geo.CellIndex lookups, partition and halo dominate; VI is
	// a small share and the checkpoint is engine-dominated.
	"city": {
		name: "city",
		spec: func(seed int64) spec.Spec {
			return counterWorld(seed, 20, 30000, spec.Engine{Shards: 4, Workers: 2})
		},
		perSecond: 1.3, warmup: 1, setupReps: 15, ckptReps: 101, resumeReps: 41,
		scrapeEvery: 1, scrapeReps: 10, probeSteps: 3,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"vinfra/internal/checkpoint"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// runWorld drives one workload through spec.Parse/spec.Build and World.
//
// Untraced: set up the world several times (setup_s), warm it up, step the
// measured window (rounds_per_s), then measure the live heap, checkpoint
// and resume at the end of the run.
//
// Traced: the same set-up and an untraced window on one world (runtime
// counters, the untraced rate the overhead is taken against), then a second
// world of the same spec stepped through the same window with spans on and
// the radio replay hooked in, checkpointed and resumed under spans, and
// finally served by an in-process service for the service-layer spans.
func runWorld(wl *workload, cfg config) (*result, error) {
	res := newResult(wl.name, cfg.seed, cfg.trace)
	doc := wl.spec(cfg.seed).JSON()
	n := cfg.workFor(wl)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	w, setups, err := setupWorld(doc, wl.setupReps, tr)
	if err != nil {
		return nil, err
	}
	stepVRounds(w, wl.warmup)
	if !cfg.trace {
		res.add("setup_s", "s", median(seconds(setups)), len(setups))
		win := stepWindow(w, n, wl, nil, nil)
		res.add("rounds_per_s", "1/s", win.rate(), min(rateChunks, len(win.steps)))
		res.add("heap_live_mb", "MiB", liveHeapMB(), 0)
		ck, err := checkpointAndResume(w, doc, wl.ckptReps, wl.resumeReps, nil, res)
		if err != nil {
			return nil, err
		}
		res.add("checkpoint_s", "s", blockMedian(ck.checkpoint), len(ck.checkpoint))
		res.add("resume_s", "s", blockMedian(ck.resume), len(ck.resume))
		pinDigest(res, wl, cfg, n, worldDigest(w, ck.bytes))
		w.Eng.Close()
		return res, nil
	}

	win := stepWindow(w, n, wl, nil, nil)
	res.addRuntime(win.rt0, win.rt1, win.rounds)
	w.Eng.Close()
	w = nil

	w, err = buildWorld(doc, nil)
	if err != nil {
		return nil, err
	}
	stepVRounds(w, wl.warmup)
	probe, err := newRoundProbe(w, tr, res)
	if err != nil {
		return nil, err
	}
	traced := stepWindow(w, n, wl, tr, probe)
	res.add("trace.rounds_per_s_ratio", "ratio", traced.rate()/win.rate(), 0)
	res.add("vi.scrape_s", "s", blockMedian(seconds(traced.scrapes)), len(traced.scrapes))
	ck, err := checkpointAndResume(w, doc, wl.ckptReps, wl.resumeReps, tr, res)
	if err != nil {
		return nil, err
	}
	pinDigest(res, wl, cfg, n, worldDigest(w, ck.bytes))

	layers := statsOf(w, ck, probe)
	w.Eng.Close()
	w = nil // the service probe builds its own world of this size

	if err := serviceProbe(doc, wl.probeSteps, tr, res); err != nil {
		return nil, err
	}
	reportLayers(res, tr, layers)
	return res, cfg.writeTrace(tr, res)
}

// buildWorld is one spec.Parse + spec.Build of the document, recorded as
// two spans.
func buildWorld(doc []byte, tr *tracer) (*spec.World, error) {
	w, _, err := timedBuild(doc, tr)
	return w, err
}

func timedBuild(doc []byte, tr *tracer) (*spec.World, time.Duration, error) {
	t0 := time.Now()
	sp, err := spec.Parse(doc)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	w, err := spec.Build(sp)
	if err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	tr.add("spec.Parse", 0, 0, t0, t1)
	tr.add("spec.Build", 0, 0, t1, t2)
	return w, t2.Sub(t0), nil
}

// setupWorld builds the document reps times and returns the last world
// with every Parse+Build duration; the earlier worlds are closed.
func setupWorld(doc []byte, reps int, tr *tracer) (*spec.World, []time.Duration, error) {
	var w *spec.World
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		if w != nil {
			w.Eng.Close()
		}
		runtime.GC()
		var d time.Duration
		var err error
		if w, d, err = timedBuild(doc, tr); err != nil {
			return nil, nil, err
		}
		ds = append(ds, d)
	}
	return w, ds, nil
}

func stepVRounds(w *spec.World, n int) {
	for i := 0; i < n; i++ {
		w.StepVRound()
	}
}

// window is one measured stepping window.
type window struct {
	steps   []time.Duration // one World.StepVRound each
	scrapes []time.Duration
	rounds  int
	rt0     runtimeSample
	rt1     runtimeSample
}

// rate is the window's radio rounds per second of stepping, the median
// over rateChunks equal slices of its vrounds, so a burst of interference
// from outside the benchmark moves one slice, not the result.
func (w window) rate() float64 {
	k := min(rateChunks, len(w.steps))
	var rates []float64
	for c := 0; c < k; c++ {
		lo, hi := len(w.steps)*c/k, len(w.steps)*(c+1)/k
		var busy time.Duration
		for _, d := range w.steps[lo:hi] {
			busy += d
		}
		rates = append(rates, float64(w.rounds*(hi-lo))/float64(len(w.steps))/busy.Seconds())
	}
	return median(rates)
}

const rateChunks = 10

// stepWindow steps n vrounds, timing each World.StepVRound, and every
// wl.scrapeEvery vrounds reads the world's observable state wl.scrapeReps
// times (the in-process counterpart of a /metrics scrape). The rate counts
// stepping time only; the Go runtime's counters bracket the whole window.
func stepWindow(w *spec.World, n int, wl *workload, tr *tracer, probe *roundProbe) window {
	runtime.GC()
	win := window{rt0: readRuntime()}
	r0 := w.Eng.Stats().Rounds
	for i := 0; i < n; i++ {
		win.steps = append(win.steps, timedStep(w, tr, probe))
		if (i+1)%wl.scrapeEvery != 0 {
			continue
		}
		for j := 0; j < wl.scrapeReps; j++ {
			t0 := time.Now()
			scrape(w)
			t1 := time.Now()
			tr.add("vi.scrape", 0, 0, t0, t1)
			win.scrapes = append(win.scrapes, t1.Sub(t0))
		}
	}
	win.rt1 = readRuntime()
	win.rounds = w.Eng.Stats().Rounds - r0
	return win
}

// timedStep runs one World.StepVRound under a span and returns its
// duration.
func timedStep(w *spec.World, tr *tracer, probe *roundProbe) time.Duration {
	t0 := time.Now()
	sp := tr.begin("spec.World.StepVRound", 0, t0)
	if probe != nil {
		probe.beginStep(sp, t0)
	}
	w.StepVRound()
	t1 := time.Now()
	tr.end(sp, t1)
	return t1.Sub(t0)
}

// scrape reads what the service's /metrics reports for one world: engine
// statistics, churn counters and every virtual node's availability through
// the current virtual round.
func scrape(w *spec.World) {
	w.Eng.Stats()
	w.Joins()
	w.Resets()
	vr := w.VRound()
	for v := range w.Locs {
		w.Mon.ReportThrough(vi.VNodeID(v), vr)
	}
}

// ckptTimes are the end-of-run checkpoint and resume measurements.
type ckptTimes struct {
	bytes                     []byte
	checkpoint, resume        []float64
	monitorBytes, engineBytes int
}

// checkpointAndResume takes ckptReps checkpoints (World.Checkpoint +
// Encode) and resumeReps resumes (checkpoint.Decode + Parse + Build +
// World.Restore) of the world back to back, so the collections their
// allocations cause fall inside the timings, and checks the round trip:
// the last resumed world re-encodes to the original bytes.
func checkpointAndResume(w *spec.World, doc []byte, ckptReps, resumeReps int, tr *tracer, res *result) (ckptTimes, error) {
	var ck ckptTimes
	runtime.GC()
	for i := 0; i < ckptReps; i++ {
		t0 := time.Now()
		cp := w.Checkpoint()
		t1 := time.Now()
		b := cp.Encode()
		t2 := time.Now()
		tr.add("checkpoint.World.Checkpoint", 0, 0, t0, t1)
		tr.add("checkpoint.Encode", 0, 0, t1, t2)
		ck.checkpoint = append(ck.checkpoint, t2.Sub(t0).Seconds())
		if ck.bytes != nil {
			res.expect("checkpoint_stable", bytes.Equal(b, ck.bytes), "repeated checkpoints of an unchanged world differ")
		}
		ck.bytes = b
		ck.monitorBytes, ck.engineBytes = cp.Monitor.WireSize(), cp.Engine.WireSize()
	}
	var back *spec.World
	runtime.GC()
	for i := 0; i < resumeReps; i++ {
		if back != nil {
			back.Eng.Close()
		}
		t0 := time.Now()
		cp, err := checkpoint.Decode(ck.bytes)
		if err != nil {
			return ck, err
		}
		t1 := time.Now()
		tr.add("checkpoint.Decode", 0, 0, t0, t1)
		if back, err = buildWorld(doc, tr); err != nil {
			return ck, err
		}
		t2 := time.Now()
		if err := back.Restore(cp); err != nil {
			return ck, err
		}
		t3 := time.Now()
		tr.add("checkpoint.World.Restore", 0, 0, t2, t3)
		ck.resume = append(ck.resume, t3.Sub(t0).Seconds())
	}
	res.expect("checkpoint_roundtrip", bytes.Equal(back.Checkpoint().Encode(), ck.bytes),
		"decode, rebuild, restore and re-encode did not reproduce the checkpoint bytes")
	back.Eng.Close()
	return ck, nil
}

// worldDigest hashes the simulated statistics and the final checkpoint
// bytes; any change to it is a behaviour change, not a speed-up.
func worldDigest(w *spec.World, ckpt []byte) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "vround=%d stats=%+v summary=%+v joins=%d resets=%d\n",
		w.VRound(), w.Eng.Stats(), w.Summary(), w.Joins(), w.Resets())
	h.Write(ckpt)
	return h.Sum(nil)
}

// pinDigest records the run's digest and, where one is pinned for this
// (workload, seed, work), checks it.
func pinDigest(res *result, wl *workload, cfg config, work int, sum []byte) {
	res.Digest = shortHex(sum, 16)
	if want, ok := pins[pinKey{wl.name, cfg.seed, work}]; ok {
		res.expect("digest_pin", res.Digest == want, "digest %s, pinned %s", res.Digest, want)
	}
}

// newRoundProbe hooks the replay probe into a world. The replay medium is
// the medium of a second world built from the same spec with only the
// devices stripped, so it carries exactly the radio configuration the spec
// implies (radii, detector, seed, delivery mode, jammers); the snapshot
// fingerprint check confirms it.
func newRoundProbe(w *spec.World, tr *tracer, res *result) (*roundProbe, error) {
	s := w.Spec
	s.Devices = spec.Devices{Replicas: 1, VMax: s.Devices.VMax}
	s.Engine.Shards = 0
	s.Faults = nil
	for _, f := range w.Spec.Faults {
		if f.IsJammer() {
			s.Faults = append(s.Faults, f)
		}
	}
	twin, err := spec.Build(s)
	if err != nil {
		return nil, err
	}
	twin.Eng.Close()
	res.expect("replay_medium_config", twin.Medium.Snapshot() == w.Medium.Snapshot(),
		"replay medium %+v differs from the world's %+v", twin.Medium.Snapshot(), w.Medium.Snapshot())
	p := &roundProbe{tr: tr, eng: w.Eng, replay: twin.Medium, res: res}
	p.attach()
	return p, nil
}

// layerStats are the simulated statistics the traced run reports. They
// measure behaviour, not speed: an optimisation must leave them unchanged.
type layerStats struct {
	rounds, txs, halo, bytes, maxMsg int
	probeRounds, rxMsgs, collisions  int
	availability                     float64
	unavailable, maxStall            int
	joins, resets                    int
	monitorBytes, engineBytes        int
	ckptBytes                        int
}

func statsOf(w *spec.World, ck ckptTimes, probe *roundProbe) layerStats {
	st := w.Eng.Stats()
	sum := w.Summary()
	return layerStats{
		rounds: st.Rounds, txs: st.Transmissions, halo: st.HaloTransmissions,
		bytes: st.TotalBytes, maxMsg: st.MaxMessageSize,
		probeRounds: probe.rounds, rxMsgs: probe.rxMsgs, collisions: probe.collisions,
		availability: sum.MeanAvailability, unavailable: sum.Unavailable, maxStall: sum.MaxStall,
		joins: w.Joins(), resets: w.Resets(),
		monitorBytes: ck.monitorBytes, engineBytes: ck.engineBytes, ckptBytes: len(ck.bytes),
	}
}

// reportLayers emits every per-layer metric: timings from the spans and
// the simulated statistics from the traced worlds.
func reportLayers(res *result, tr *tracer, ls layerStats) {
	add := func(metric, span string, q float64) {
		d := tr.durations(span)
		res.add(metric, "s", quantile(d, q), len(d))
	}
	add("radio.deliver_replay_s_p50", "radio.Medium.Deliver", 0.5)
	add("sim.round_s_p50", "sim.round", 0.5)
	add("sim.round_s_p90", "sim.round", 0.9)
	add("spec.build_s", "spec.Build", 0.5)
	add("checkpoint.snapshot_s", "checkpoint.World.Checkpoint", 0.5)
	add("checkpoint.encode_s", "checkpoint.Encode", 0.5)
	add("checkpoint.decode_s", "checkpoint.Decode", 0.5)
	add("checkpoint.restore_s", "checkpoint.World.Restore", 0.5)
	add("service.create_s", "client.create", 0.5)
	add("service.handler_s_p50", "service.step", 0.5)
	transport := tr.transport("step")
	res.add("service.transport_s_p50", "s", median(transport), len(transport))
	add("service.metrics_handler_s_p50", "service.metrics", 0.5)

	per := func(x int) float64 { return float64(x) / float64(max(ls.rounds, 1)) }
	res.add("sim.tx_per_round", "count", per(ls.txs), ls.rounds)
	res.add("sim.halo_tx_per_round", "count", per(ls.halo), ls.rounds)
	res.add("radio.rx_msgs_per_round", "count", float64(ls.rxMsgs)/float64(max(ls.probeRounds, 1)), ls.probeRounds)
	res.add("radio.collisions_per_round", "count", float64(ls.collisions)/float64(max(ls.probeRounds, 1)), ls.probeRounds)
	res.add("wire.bytes_per_round", "B", per(ls.bytes), ls.rounds)
	res.add("wire.max_msg_bytes", "B", float64(ls.maxMsg), 0)
	res.add("vi.availability", "ratio", ls.availability, 0)
	res.add("vi.unavailable", "count", float64(ls.unavailable), 0)
	res.add("vi.max_stall", "count", float64(ls.maxStall), 0)
	res.add("vi.joins", "count", float64(ls.joins), 0)
	res.add("vi.resets", "count", float64(ls.resets), 0)
	res.add("vi.monitor_bytes", "B", float64(ls.monitorBytes), 0)
	res.add("checkpoint.engine_bytes", "B", float64(ls.engineBytes), 0)
	res.add("checkpoint.bytes", "B", float64(ls.ckptBytes), 0)
}

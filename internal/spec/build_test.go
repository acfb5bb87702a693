package spec

import (
	"bytes"
	"testing"
)

// smallSpec is the shared fixture: a 2x1 counter world with pingers, small
// enough that a handful of virtual rounds stays fast under -race.
func smallSpec(t *testing.T) Spec {
	t.Helper()
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1", "seed": 9, "vrounds": 8,
		"grid": {"cols": 2, "rows": 1},
		"devices": {"pingers": true}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func run(t *testing.T, w *World, vrounds int) {
	t.Helper()
	for i := 0; i < vrounds; i++ {
		w.StepVRound()
	}
}

func TestBuildDeterministic(t *testing.T) {
	s := smallSpec(t)
	a, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer a.Eng.Close()
	b, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Eng.Close()
	run(t, a, 6)
	run(t, b, 6)
	if !bytes.Equal(a.Checkpoint().Encode(), b.Checkpoint().Encode()) {
		t.Fatal("two runs of the same spec diverged")
	}
	if a.Summary().MeanAvailability != 1 {
		t.Fatalf("fault-free availability %.3f, want 1.0", a.Summary().MeanAvailability)
	}
}

// TestShardedMatchesSequential pins every engine configuration a spec can
// ask for to the sequential world. The unsharded parallel rows (workers: 2
// is the metro benchmark's engine) keep one medium, so their full
// checkpoint bytes must match the sequential ones. A sharded engine's
// snapshot records the shard plan and halo accounting, so the sharded row
// is held to the monitor bytes plus the core stats.
func TestShardedMatchesSequential(t *testing.T) {
	s := smallSpec(t)
	seq, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer seq.Eng.Close()
	run(t, seq, 4)
	wantCkpt := seq.Checkpoint().Encode()
	wantMon := seq.Mon.Snapshot().AppendTo(nil)
	wantStats := seq.Eng.Stats()

	for _, tc := range []struct {
		name   string
		engine Engine
	}{
		{"workers=2", Engine{Workers: 2}},
		{"parallel", Engine{Parallel: true}},
		{"shards=2", Engine{Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := s
			s.Engine = tc.engine
			w, err := Build(s)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			defer w.Eng.Close()
			run(t, w, 4)
			if tc.engine.Shards == 0 {
				if !bytes.Equal(w.Checkpoint().Encode(), wantCkpt) {
					t.Fatal("checkpoint diverged from the sequential world")
				}
				return
			}
			if !bytes.Equal(w.Mon.Snapshot().AppendTo(nil), wantMon) {
				t.Fatal("sharded run diverged from sequential (monitor)")
			}
			stats, want := w.Eng.Stats(), wantStats
			stats.HaloTransmissions, want.HaloTransmissions = 0, 0
			if stats != want {
				t.Fatalf("sharded stats %+v diverged from sequential %+v", stats, want)
			}
		})
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	s := smallSpec(t)
	ref, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer ref.Eng.Close()
	run(t, ref, 6)
	want := ref.Checkpoint().Encode()

	half, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	run(t, half, 3)
	cp := half.Checkpoint()
	half.Eng.Close()

	resumed, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer resumed.Eng.Close()
	if err := resumed.Restore(cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if resumed.VRound() != 3 {
		t.Fatalf("restored vround %d, want 3", resumed.VRound())
	}
	run(t, resumed, 3)
	if !bytes.Equal(resumed.Checkpoint().Encode(), want) {
		t.Fatal("restored run diverged from the straight run")
	}
}

// TestInjectFaultMatchesListedFault pins the injection equivalence the
// service API leans on: building from a spec that lists a fault is
// byte-identical to building without it and injecting the same fault
// mid-run, before its window opens — including the defaulted seed, which
// derives from the fault's index either way.
func TestInjectFaultMatchesListedFault(t *testing.T) {
	s := smallSpec(t)
	burst := Fault{Kind: KindCrashBurst, From: 150, Until: 250, Period: 30, P: 0.5}

	listed := s
	listed.Faults = []Fault{burst}
	listed.ApplyDefaults()
	ref, err := Build(listed)
	if err != nil {
		t.Fatalf("Build listed: %v", err)
	}
	defer ref.Eng.Close()
	run(t, ref, 6)

	inj, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer inj.Eng.Close()
	run(t, inj, 2) // 2 vrounds < 150 radio rounds? per-vround is ~50; stay before From.
	if got := inj.VRound() * inj.RoundsPerVRound(); got >= burst.From {
		t.Fatalf("test drove past the fault window opening (round %d >= %d)", got, burst.From)
	}
	if err := inj.InjectFault(Fault{Kind: KindCrashBurst, From: 150, Until: 250, Period: 30, P: 0.5}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	run(t, inj, 4)

	if !bytes.Equal(ref.Checkpoint().Encode(), inj.Checkpoint().Encode()) {
		t.Fatal("injected fault diverged from the same fault listed in the spec")
	}
	if inj.Spec.Faults[0].Seed != listed.Faults[0].Seed {
		t.Fatalf("injected fault seed %d != listed %d", inj.Spec.Faults[0].Seed, listed.Faults[0].Seed)
	}
	if string(inj.Spec.JSON()) != string(listed.JSON()) {
		t.Fatal("effective spec after injection differs from the listed spec")
	}
}

func TestInjectFaultRejectsJammers(t *testing.T) {
	w, err := Build(smallSpec(t))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	if err := w.InjectFault(Fault{Kind: KindCellJammer, Cells: 2}); err == nil {
		t.Fatal("jammer injection accepted")
	}
	if err := w.InjectFault(Fault{Kind: "sharknado"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildTrackerWorld(t *testing.T) {
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1", "seed": 3, "vrounds": 12,
		"grid": {"cols": 2, "rows": 1},
		"app": "tracker",
		"devices": {"targets": 1, "listeners": 2}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	if len(w.Targets) != 1 || w.Observer == nil {
		t.Fatalf("tracker world missing targets/observer: %+v", w.Targets)
	}
	run(t, w, 12)
	if _, ok := w.Lookup("target-00"); !ok {
		t.Fatal("observer never saw target-00")
	}
}

func TestBuildWithJammerDegradesAvailability(t *testing.T) {
	s := smallSpec(t)
	s.VRounds = 6
	s.Faults = []Fault{{
		Kind:   KindRegionJammer,
		Radius: 3,
		From:   0,
	}}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	run(t, w, 6)
	if avail := w.Summary().MeanAvailability; avail >= 1 {
		t.Fatalf("always-on region jammer left availability at %.3f", avail)
	}
}

package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"vinfra/internal/checkpoint"
	"vinfra/internal/faults"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// runSoak steps a freshly built soak to completion.
func runSoak(t *testing.T, exp string, p harness.Params, seed int64, shards int) []harness.Row {
	t.Helper()
	s, err := NewSoak(exp, &harness.Cell{Params: p, Seed: seed}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	return s.Rows()
}

// runSegmented runs the same cell as a chain of checkpointed segments: at
// every cut the run is suspended into a checkpoint, the checkpoint makes a
// full trip through the file encoding, and a freshly constructed soak (a
// brand-new engine, medium, deployment and monitor) resumes from it.
func runSegmented(t *testing.T, exp string, p harness.Params, seed int64, shards int, cuts []int) []harness.Row {
	t.Helper()
	s, err := NewSoak(exp, &harness.Cell{Params: p, Seed: seed}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		for s.VRound() < cut {
			s.StepVRound()
		}
		cp, err := checkpoint.Decode(s.Checkpoint().Encode())
		if err != nil {
			t.Fatalf("checkpoint encode/decode at vround %d: %v", cut, err)
		}
		fresh, err := NewSoak(exp, &harness.Cell{Params: p, Seed: seed}, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(cp); err != nil {
			t.Fatalf("restore at vround %d: %v", cut, err)
		}
		if fresh.VRound() != cut {
			t.Fatalf("restored soak resumes at vround %d, checkpoint was taken at %d", fresh.VRound(), cut)
		}
		s = fresh
	}
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	return s.Rows()
}

// TestSoakRestoreEqualsUninterrupted is the golden property of the
// checkpoint plane: an E11/E13 run suspended into checkpoints at several
// virtual-round cuts and resumed on freshly built deployments produces
// rows byte-identical to the uninterrupted run — across the single-medium
// bed and region-sharded beds (shards 1 and 8), through every adversary
// kind (mid-jam duty cycle, between scheduled region wipes, inside a churn
// storm's window, mid crash-burst attrition) and the metro churn load with
// its mid-run joiners.
func TestSoakRestoreEqualsUninterrupted(t *testing.T) {
	type tc struct {
		exp string
		p   harness.Params
	}
	var cases []tc
	for _, p := range e11Desc.Grid(true) {
		cases = append(cases, tc{"E11", p})
	}
	for _, p := range e13Desc.Grid(true) {
		cases = append(cases, tc{"E13", p})
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s", c.exp, c.p.Label), func(t *testing.T) {
			t.Parallel()
			want := runSoak(t, c.exp, c.p, 1, 0)
			for _, shards := range []int{0, 1, 8} {
				got := runSegmented(t, c.exp, c.p, 1, shards, []int{2, 5, 7})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: segmented rows diverge from the uninterrupted run:\ngot:  %+v\nwant: %+v",
						shards, got, want)
				}
			}
		})
	}
}

// TestCitySoakRestoreEqualsUninterrupted extends the golden property to
// E14: the sharded city — mobile listeners migrating across shard
// boundaries under RandomWaypoint — checkpointed mid-run and resumed on a
// fresh bed, pinned byte-identical (including the order-sensitive
// heard-hash over every listener) on shards 1 and 8.
func TestCitySoakRestoreEqualsUninterrupted(t *testing.T) {
	p := harness.Params{
		Label: "2k/5x5",
		Ints: map[string]int{
			"devices": 2_000, "cols": 5, "rows": 5, "vrounds": 2,
		},
	}
	// The halo-transmission column is shard-count-dependent cost accounting,
	// so each shard count is pinned against its own uninterrupted run.
	for _, shards := range []int{1, 8} {
		want := runSoak(t, "E14", p, 1, shards)
		got := runSegmented(t, "E14", p, 1, shards, []int{1})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: segmented city rows diverge:\ngot:  %+v\nwant: %+v", shards, got, want)
		}
	}
}

// TestCheckpointMidRound checkpoints at engine rounds that are NOT
// virtual-round boundaries — mid CellJammer duty cycle, one round after a
// RegionWipe, inside a ChurnStorm window — so the emulators' mid-vround
// scratch state (collected ballots, pending join requests, broadcast
// flags) must survive the trip. Equality is judged on the full engine and
// monitor snapshot encodings, the strongest byte-identity check available.
func TestCheckpointMidRound(t *testing.T) {
	locs := geo.Grid{Spacing: 6, Cols: 3, Rows: 3}.Locations()
	per := vi.Timing{S: vi.BuildSchedule(locs, Radii).Len()}.RoundsPerVRound()
	area := geo.Rect{Min: geo.Point{X: -3, Y: -3}, Max: geo.Point{X: 15, Y: 15}}

	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			mk := func() *viBed {
				bed := newVIBed(viBedOpts{
					locs:        locs,
					replicasPer: 3,
					seed:        11,
					fixedLeader: true,
					adversary: &faults.CellJammer{
						Window:   faults.Window{From: sim.Round(per / 2)},
						Bounds:   area,
						CellSize: 6,
						Cells:    2,
						Seed:     99,
					},
					parallel: true,
					shards:   shards,
				})
				for _, loc := range locs {
					bed.addPinger(geo.Point{X: loc.X + 1.2, Y: loc.Y - 1})
				}
				bed.eng.AddFault(faults.RegionWipe{
					Center: locs[4],
					Radius: 1.0,
					At:     sim.Round(2*per + per/3),
				})
				bed.eng.AddFault(&faults.ChurnStorm{
					Window: faults.Window{From: sim.Round(per), Until: sim.Round(3 * per)},
					Period: per / 2,
					Kills:  1,
					Seed:   17,
					// Pure attrition (no Respawn) sparing the leaders, so the
					// node population stays construction-determined.
					Eligible: func(id sim.NodeID) bool { return int(id)%3 != 0 },
				})
				return bed
			}
			total := 5 * per

			straight := mk()
			straight.eng.Run(total)
			wantEng := straight.eng.Snapshot().AppendTo(nil)
			wantMon := straight.mon.Snapshot().AppendTo(nil)

			bed := mk()
			cuts := []int{per/2 + 1, 2*per + per/3 + 1, 3*per + 2}
			for _, cut := range cuts {
				bed.eng.Run(cut - int(bed.eng.Round()))
				cp, err := checkpoint.Decode(checkpoint.Checkpoint{
					Engine:  bed.eng.Snapshot(),
					Medium:  bed.medium.Snapshot(),
					Monitor: bed.mon.Snapshot(),
				}.Encode())
				if err != nil {
					t.Fatalf("checkpoint at round %d: %v", cut, err)
				}
				bed = mk()
				if err := bed.medium.Restore(cp.Medium); err != nil {
					t.Fatalf("medium restore at round %d: %v", cut, err)
				}
				if err := bed.eng.Restore(cp.Engine); err != nil {
					t.Fatalf("engine restore at round %d: %v", cut, err)
				}
				bed.mon.Restore(cp.Monitor)
			}
			bed.eng.Run(total - int(bed.eng.Round()))

			if got := bed.eng.Snapshot().AppendTo(nil); !bytes.Equal(got, wantEng) {
				t.Fatalf("engine state after mid-round restores diverges from the uninterrupted run (%d vs %d bytes)", len(got), len(wantEng))
			}
			if got := bed.mon.Snapshot().AppendTo(nil); !bytes.Equal(got, wantMon) {
				t.Fatalf("monitor state after mid-round restores diverges from the uninterrupted run")
			}
		})
	}
}

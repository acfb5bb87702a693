package experiments

import (
	"reflect"
	"testing"

	"vinfra/internal/harness"
)

// TestAdversaryParallelEqualsSequential pins the adversary plane's
// determinism contract: every E13 cell — jammers filtering receivers in
// the medium, faults striking from the engine loop, monitor accounting fed
// from the pool's Receive fan-out — produces
// byte-identical rows whether the stack runs sequentially or parallel.
func TestAdversaryParallelEqualsSequential(t *testing.T) {
	for _, p := range e13Desc.Grid(true) {
		for _, seed := range []int64{1, 2} {
			p, seed := p, seed
			t.Run(p.Label, func(t *testing.T) {
				t.Parallel()
				par := adversaryRows(&harness.Cell{Params: p, Seed: seed}, true, 0)
				seq := adversaryRows(&harness.Cell{Params: p, Seed: seed}, false, 0)
				if !reflect.DeepEqual(par, seq) {
					t.Fatalf("seed %d: parallel rows diverge from sequential:\npar: %+v\nseq: %+v",
						seed, par, seq)
				}
			})
		}
	}
}

// TestAdversaryCellsDegradeAvailability sanity-checks that the adversaries
// actually bite and the stack absorbs them: the jammer must cost
// availability (it silences whole regions on a duty cycle), while the
// storm's kill-and-respawn churn must keep the deployment largely
// available (the paper's availability claim under hostile churn).
func TestAdversaryCellsDegradeAvailability(t *testing.T) {
	availability := func(kind string) float64 {
		rows := adversaryRows(&harness.Cell{Seed: 1, Params: harness.Params{
			Ints: map[string]int{"cols": 3, "rows": 3, "vrounds": 8},
			Strs: map[string]string{"kind": kind, "intensity": "high"},
		}}, true, 0)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", kind, len(rows))
		}
		return rows[0][6].V.(float64)
	}
	jam := availability("jam")
	if jam > 0.8 {
		t.Errorf("high jam availability = %.2f, want a visible dent (<= 0.8)", jam)
	}
	storm := availability("storm")
	if storm < 0.7 {
		t.Errorf("high storm availability = %.2f, want the stack to absorb churn (>= 0.7)", storm)
	}
	if jam >= storm {
		t.Errorf("jam (%.2f) should hurt more than absorbed churn (%.2f)", jam, storm)
	}
}

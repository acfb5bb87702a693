package radio

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// randomRound builds a randomized scenario: node positions scattered over a
// field sized to the node count (roughly constant density), a random subset
// transmitting, random radii, and a few dead nodes.
func randomRound(rng *rand.Rand, n int) (geo.Radii, []sim.NodeInfo, []sim.Transmission) {
	radii := geo.Radii{R1: 2 + rng.Float64()*10}
	radii.R2 = radii.R1 * (1 + rng.Float64())
	side := 10 + 4*float64(n)*rng.Float64()
	infos := make([]sim.NodeInfo, n)
	var txs []sim.Transmission
	for i := range infos {
		infos[i] = sim.NodeInfo{
			ID:    sim.NodeID(i),
			At:    geo.Point{X: rng.Float64()*side - side/2, Y: rng.Float64()*side - side/2},
			Alive: rng.Intn(10) > 0,
		}
		if infos[i].Alive && rng.Intn(3) > 0 {
			txs = append(txs, sim.Transmission{
				Sender: infos[i].ID,
				From:   infos[i].At,
				Msg:    fmt.Sprintf("m%d", i),
			})
		}
	}
	return radii, infos, txs
}

// TestGridScanEquivalence is the tentpole's safety net: across randomized
// positions, radii, adversaries, gray-zone settings, and rounds, the
// grid-indexed medium must produce receptions identical to the brute-force
// scan — same messages, same order, same collision indications.
func TestGridScanEquivalence(t *testing.T) {
	f := func(seed uint32, nRaw uint8, advRaw, grayRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw%120) + 2
		radii, infos, txs := randomRound(rng, n)

		var adv Adversary
		switch advRaw % 3 {
		case 1:
			adv = NewRandomLoss(0.3+rng.Float64()*0.5, 0.2, 50, int64(seed)*13)
		case 2:
			s := &Script{}
			for i := 0; i < 5; i++ {
				s.Drop(sim.Round(rng.Intn(4)), sim.NodeID(rng.Intn(n)), sim.NodeID(rng.Intn(n)))
				s.Collide(sim.Round(rng.Intn(4)), sim.NodeID(rng.Intn(n)))
			}
			adv = s
		}
		gray := 0.0
		if grayRaw%2 == 1 {
			gray = rng.Float64()
		}
		base := Config{
			Radii:                radii,
			Detector:             cd.EventuallyAC{Racc: 2, FalsePositiveRate: 0.2},
			Adversary:            adv,
			GrayZoneDeliveryProb: gray,
			Seed:                 int64(seed) + 5,
		}
		scanCfg, gridCfg := base, base
		scanCfg.Mode = ModeScan
		gridCfg.Mode = ModeGrid
		scan := MustMedium(scanCfg)
		grid := MustMedium(gridCfg)

		for r := sim.Round(0); r < 4; r++ {
			a := scan.Deliver(r, txs, infos)
			b := grid.Deliver(r, txs, infos)
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestParallelDeliveryDeterminism pins the property the region-sharded
// engine's parallelism rests on: a reception depends only on the receiver,
// the round and the transmissions near it, never on which other receivers
// share the Deliver call. For any scenario and any split, delivering each
// receiver group through its own Medium — concurrently, every medium
// sharing one adversary — reproduces the single-medium receptions, run
// after run.
func TestParallelDeliveryDeterminism(t *testing.T) {
	f := func(seed uint32, nRaw uint8, groupsRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw%120) + 2
		radii, infos, txs := randomRound(rng, n)
		cfg := Config{
			Radii:                radii,
			Detector:             cd.EventuallyAC{Racc: 2, FalsePositiveRate: 0.3},
			Adversary:            NewRandomLoss(0.4, 0.2, 50, int64(seed)),
			GrayZoneDeliveryProb: 0.5,
			Seed:                 int64(seed) + 1,
		}
		k := int(groupsRaw%8) + 1
		seq := MustMedium(cfg)
		groups := make([]*Medium, k)
		for g := range groups {
			groups[g] = MustMedium(cfg)
		}
		for r := sim.Round(0); r < 3; r++ {
			want := seq.Deliver(r, txs, infos)
			for rep := 0; rep < 3; rep++ {
				got := make([]sim.Reception, n)
				var wg sync.WaitGroup
				for g, m := range groups {
					lo, hi := g*n/k, (g+1)*n/k
					wg.Add(1)
					go func() {
						defer wg.Done()
						copy(got[lo:hi], m.Deliver(r, txs, infos[lo:hi]))
					}()
				}
				wg.Wait()
				if !reflect.DeepEqual(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGridScanEquivalenceStaleFrom pins the half-duplex rule for a
// transmission whose claimed origin is far from its sender's current
// position: the grid can't find it by position near the sender, so it must
// be looked up by identity, or the modes diverge.
func TestGridScanEquivalenceStaleFrom(t *testing.T) {
	radii := geo.Radii{R1: 10, R2: 20}
	infos := []sim.NodeInfo{
		{ID: 0, At: geo.Point{X: 0}, Alive: true},
		{ID: 1, At: geo.Point{X: 5}, Alive: true},
	}
	txs := []sim.Transmission{
		// Node 0 transmits, but the recorded origin is nowhere near it.
		{Sender: 0, From: geo.Point{X: 500}, Msg: "stale"},
		{Sender: 1, From: geo.Point{X: 5}, Msg: "near"},
	}
	base := Config{Radii: radii, Detector: cd.AC{}, Seed: 3}
	scanCfg, gridCfg := base, base
	scanCfg.Mode = ModeScan
	gridCfg.Mode = ModeGrid
	want := MustMedium(scanCfg).Deliver(0, txs, infos)
	got := MustMedium(gridCfg).Deliver(0, txs, infos)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale-From receptions diverge:\nscan: %+v\ngrid: %+v", want, got)
	}
}

// TestAutoModeMatchesScan pins the heuristic mode to the reference scan on
// both sides of the index threshold.
func TestAutoModeMatchesScan(t *testing.T) {
	for _, n := range []int{4, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		radii, infos, txs := randomRound(rng, n)
		base := Config{Radii: radii, Detector: cd.AC{}, Seed: 9}
		scanCfg, autoCfg := base, base
		scanCfg.Mode = ModeScan
		want := MustMedium(scanCfg).Deliver(0, txs, infos)
		got := MustMedium(autoCfg).Deliver(0, txs, infos)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: ModeAuto receptions diverge from ModeScan", n)
		}
	}
}

func TestNewMediumRejectsBadMode(t *testing.T) {
	radii := geo.Radii{R1: 1, R2: 2}
	if _, err := NewMedium(Config{Radii: radii, Detector: cd.AC{}, Mode: DeliveryMode(42)}); err == nil {
		t.Error("bad Mode accepted")
	}
}

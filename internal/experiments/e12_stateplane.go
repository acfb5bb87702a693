package experiments

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/metrics"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// e12Shapes are the state-plane sweep's virtual-node grids: 9, 25 and 49
// virtual nodes, the scales the byte-oriented state plane (internal/wire
// proposals, states and join-acks replacing the string+gob stack) is
// measured at.
var e12Shapes = []struct {
	name       string
	cols, rows int
}{
	{"3x3", 3, 3},
	{"5x5", 5, 5},
	{"7x7", 7, 7},
}

var e12Desc = harness.Descriptor{
	ID:    "E12",
	Group: "E12",
	Title: "E12 — state plane: emulation cost with the wire codec",
	Notes: "per-virtual-round emulation cost at 9/25/49 virtual nodes on the parallel grid stack; wire bytes are measured sim.MessageSize totals (exact encodings), perf JSON carries rounds/sec for the before/after gate",
	Columns: []string{
		"vnodes", "devices", "vrounds", "schedule s", "rounds/vround",
		"wire B/vround", "max msg B", "availability",
	},
	Grid: func(quick bool) []harness.Params {
		shapes := e12Shapes
		vrounds := 20
		if quick {
			shapes = e12Shapes[:1]
			vrounds = 6
		}
		var grid []harness.Params
		for _, s := range shapes {
			grid = append(grid, harness.Params{
				Label: s.name,
				Ints:  map[string]int{"cols": s.cols, "rows": s.rows, "vrounds": vrounds},
			})
		}
		return grid
	},
	Run: statePlaneCell,
}

func init() { harness.Register(e12Desc) }

// statePlaneCell measures the steady-state emulation cost of one grid
// deployment: every region has three bootstrapped replicas plus one
// staggered pinging client, and the whole stack (auto-mode delivery,
// parallel engine, wire-codec state plane) runs vrounds virtual
// rounds. The deterministic columns pin the protocol-level cost — radio
// rounds per virtual round (s+12) and measured wire bytes per virtual
// round — while the perf sample (rounds/sec, allocs) carries the
// machine-level cost that BENCH_BASELINE.json gates: this is the cell that
// watches the state plane's serialization overhead.
func statePlaneCell(c *harness.Cell) []harness.Row {
	cols, rows, vrounds := c.Params.Int("cols"), c.Params.Int("rows"), c.Params.Int("vrounds")
	const replicasPer = 3
	locs := geo.Grid{Spacing: 6, Cols: cols, Rows: rows}.Locations()
	bed := newVIBed(viBedOpts{
		locs:        locs,
		replicasPer: replicasPer,
		seed:        int64(cols*rows)*3 + c.Base(),
		fixedLeader: true,
		parallel:    true,
	})
	// One client per region, staggered so pings from neighboring regions
	// don't collide every client slot.
	for v, loc := range locs {
		v := v
		bed.eng.Attach(geo.Point{X: loc.X + 1.1, Y: loc.Y - 1.1}, nil, func(env sim.Env) sim.Node {
			return bed.dep.NewClient(env, vi.ClientFunc(
				func(vr int, _ []vi.Message, _ bool) *vi.Message {
					if vr%4 != v%4 {
						return nil
					}
					return vi.Text(fmt.Sprintf("ping-%02d-%04d", v, vr))
				}))
		})
	}
	bed.runVRounds(vrounds)
	st := bed.eng.Stats()
	c.CountRounds(st.Rounds)
	c.CountBytes(st.TotalBytes)
	return []harness.Row{{
		harness.Int(len(locs)), harness.Int(bed.eng.NumNodes()), harness.Int(vrounds),
		harness.Int(bed.dep.Schedule().Len()),
		harness.Int(bed.dep.Timing().RoundsPerVRound()),
		harness.Float(float64(st.TotalBytes) / float64(vrounds)),
		harness.Int(st.MaxMessageSize),
		harness.Float(bed.meanAvailability()),
	}}
}

// StatePlane is the legacy-style table entry point.
func StatePlane(cols, rows, vrounds int) *metrics.Table {
	c := &harness.Cell{Seed: 1, Params: harness.Params{
		Ints: map[string]int{"cols": cols, "rows": rows, "vrounds": vrounds},
	}}
	return e12Desc.TableOf(statePlaneCell(c))
}

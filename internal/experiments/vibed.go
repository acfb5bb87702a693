package experiments

import (
	"fmt"

	"vinfra/internal/apps"
	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/shard"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// viBed is a full virtual infrastructure deployment wired for measurement:
// every emulator output feeds the availability monitor, so each experiment
// reads availability, stalls and recovery latencies off bed.mon.
type viBed struct {
	eng        *sim.Engine
	dep        *vi.Deployment
	mon        *vi.Monitor
	medium     *radio.Medium // the engine's medium, kept for checkpoint fingerprints
	emulators  []*vi.Emulator
	setLeaders []func(sim.NodeID) // per-vnode leader handoff (fixedLeader only)
}

// setLeader hands virtual node v's leadership to node id (fixedLeader beds
// only) — the churn experiments use it when the current leader departs, the
// way a deployment's failover would.
func (b *viBed) setLeader(v vi.VNodeID, id sim.NodeID) {
	b.setLeaders[v](id)
}

type viBedOpts struct {
	locs        []geo.Point
	replicasPer int
	seed        int64
	fixedLeader bool
	adversary   radio.Adversary
	detector    cd.Detector
	// parallel runs the bed on the engine's worker pool (WithParallel).
	// Results are identical to the sequential bed (the determinism
	// contract); only the cost changes.
	parallel bool
	// shards > 0 runs the bed on the region-sharded engine instead of one
	// medium: shard.Split factors the count into a near-square grid, each
	// shard rectangle gets its own radio.Medium (same configuration), and
	// boundary-band transmissions are exchanged at round edges. Results are
	// identical to the single-medium bed for any count (the determinism
	// contract).
	shards int
}

func newVIBed(o viBedOpts) *viBed {
	if o.detector == nil {
		o.detector = cd.AC{}
	}
	if o.seed == 0 {
		o.seed = 1
	}
	sched := vi.BuildSchedule(o.locs, Radii)
	cfg := vi.DeploymentConfig{
		Locations: o.locs,
		Radii:     Radii,
		Program:   apps.CounterProgram(sched),
	}
	var setLeaders []func(sim.NodeID)
	if o.fixedLeader {
		factories := make([]cm.Factory, len(o.locs))
		setLeaders = make([]func(sim.NodeID), len(o.locs))
		for v := range o.locs {
			factories[v], setLeaders[v] = cm.NewFixed(sim.NodeID(v * o.replicasPer))
		}
		cfg.NewCM = func(v vi.VNodeID, env sim.Env) cm.Manager {
			return factories[v](env)
		}
	}
	dep, err := vi.NewDeployment(cfg)
	if err != nil {
		panic(err)
	}
	mediumCfg := radio.Config{
		Radii:     Radii,
		Detector:  o.detector,
		Adversary: o.adversary,
		Seed:      o.seed,
	}
	// Every medium runs ModeAuto: small rounds (and small shards) scan,
	// busy ones build a grid index.
	engOpts := []sim.Option{sim.WithSeed(o.seed)}
	if o.parallel {
		engOpts = append(engOpts, sim.WithParallel())
	}
	if o.shards > 0 {
		// Cell size is the interference radius, matching the medium's own
		// bucketing.
		cols, rows := shard.Split(o.shards)
		engOpts = append(engOpts, sim.WithRegionShards(cols, rows, Radii.R2, func() sim.Medium {
			return radio.MustMedium(mediumCfg)
		}))
	}
	medium := radio.MustMedium(mediumCfg)
	bed := &viBed{
		eng:        sim.NewEngine(medium, engOpts...),
		dep:        dep,
		mon:        vi.NewMonitor(),
		medium:     medium,
		setLeaders: setLeaders,
	}
	for v, loc := range o.locs {
		for i := 0; i < o.replicasPer; i++ {
			pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.5, Y: loc.Y + 0.2}
			bed.attachEmulator(pos, true)
		}
		_ = v
	}
	return bed
}

// attachEmulator adds an emulator (optionally bootstrapped) with green
// tracking hooks merged with the given extra hooks, and returns it.
func (b *viBed) attachEmulator(pos geo.Point, bootstrap bool, extra ...vi.EmulatorHooks) *vi.Emulator {
	var em *vi.Emulator
	hooks := vi.EmulatorHooks{OnOutput: b.mon.Observe}
	if len(extra) > 0 {
		x := extra[0]
		hooks.OnOutput = func(v vi.VNodeID, out cha.Output) {
			b.mon.Observe(v, out)
			if x.OnOutput != nil {
				x.OnOutput(v, out)
			}
		}
		hooks.OnJoin = x.OnJoin
		hooks.OnReset = x.OnReset
	}
	b.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		em = b.dep.NewEmulator(env, bootstrap)
		em.SetHooks(hooks)
		b.emulators = append(b.emulators, em)
		return em
	})
	return em
}

// addPinger attaches a client that pings every virtual round from pos.
func (b *viBed) addPinger(pos geo.Point) {
	b.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		return b.dep.NewClient(env, vi.ClientFunc(
			func(vr int, _ []vi.Message, _ bool) *vi.Message {
				return vi.Text(fmt.Sprintf("ping-%04d", vr))
			}))
	})
}

func (b *viBed) runVRounds(n int) {
	b.eng.Run(n * b.dep.Timing().RoundsPerVRound())
}

// availability returns the fraction of virtual rounds in which at least
// one replica of virtual node v reached green.
func (b *viBed) availability(v vi.VNodeID) float64 {
	return b.mon.Report(v).Availability
}

// meanAvailability averages availability over all virtual nodes.
func (b *viBed) meanAvailability() float64 {
	return b.mon.Summary(b.dep.NumVNodes()).MeanAvailability
}

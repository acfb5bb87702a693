package vi

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vinfra/internal/cha"
)

func observe(m *Monitor, v VNodeID, inst int, green bool) {
	color := cha.Red
	if green {
		color = cha.Green
	}
	m.Observe(v, cha.Output{Instance: cha.Instance(inst), Color: color})
}

func TestMonitorStallSegmentation(t *testing.T) {
	m := NewMonitor()
	// Instances 1..10: green except 3-4 (recovered stall) and 8-10 (open).
	for inst := 1; inst <= 10; inst++ {
		green := !(inst == 3 || inst == 4 || inst >= 8)
		observe(m, 0, inst, green)
		// Redundant replicas and red outputs must not change anything.
		observe(m, 0, inst, false)
		if green {
			observe(m, 0, inst, true)
		}
	}
	rep := m.Report(0)
	if rep.Instances != 10 || rep.Green != 5 || rep.Unavailable != 5 {
		t.Fatalf("instances/green/unavailable = %d/%d/%d", rep.Instances, rep.Green, rep.Unavailable)
	}
	if rep.Availability != 0.5 {
		t.Errorf("availability = %v", rep.Availability)
	}
	want := []Stall{
		{From: 3, Len: 2, Ended: true},
		{From: 8, Len: 3, Ended: false},
	}
	if !reflect.DeepEqual(rep.Stalls, want) {
		t.Errorf("stalls = %+v, want %+v", rep.Stalls, want)
	}
	if rep.MaxStall != 3 {
		t.Errorf("max stall = %d", rep.MaxStall)
	}
	if rep.MeanRecovery != 2 { // only the ended stall counts
		t.Errorf("mean recovery = %v", rep.MeanRecovery)
	}
}

func TestMonitorAlwaysGreenAndEmpty(t *testing.T) {
	m := NewMonitor()
	for inst := 1; inst <= 5; inst++ {
		observe(m, 2, inst, true)
	}
	rep := m.Report(2)
	if rep.Availability != 1 || len(rep.Stalls) != 0 || rep.MaxStall != 0 {
		t.Errorf("always-green report: %+v", rep)
	}
	// Instance 0 is the "no instance" sentinel: it is not accounted, so
	// vnode 7 stays unobserved and the snapshot still decodes.
	observe(m, 7, 0, true)
	empty := m.Report(7)
	if empty.Instances != 0 || empty.Availability != 0 {
		t.Errorf("unobserved vnode report: %+v", empty)
	}
	if s, err := DecodeMonitorSnapshot(m.Snapshot().AppendTo(nil)); err != nil || !slices.Equal(s.VNodes, []VNodeID{2}) {
		t.Errorf("snapshot decodes to vnodes %v, err %v; want [2]", s.VNodes, err)
	}
}

func TestMonitorSummaryAggregates(t *testing.T) {
	m := NewMonitor()
	// vnode 0: 4 instances all green; vnode 1: green except 2-3 (ended).
	for inst := 1; inst <= 4; inst++ {
		observe(m, 0, inst, true)
		observe(m, 1, inst, !(inst == 2 || inst == 3))
	}
	s := m.Summary(2)
	if s.MeanAvailability != 0.75 { // (1 + 0.5) / 2
		t.Errorf("mean availability = %v", s.MeanAvailability)
	}
	if s.Unavailable != 2 || s.Stalls != 1 || s.MaxStall != 2 || s.MeanRecovery != 2 {
		t.Errorf("summary = %+v", s)
	}
}

// TestMonitorOrderIndependent pins the determinism contract: the parallel
// engine delivers outputs in nondeterministic order across replicas, and
// the report must not care.
func TestMonitorOrderIndependent(t *testing.T) {
	type ev struct {
		v     VNodeID
		inst  int
		green bool
	}
	var evs []ev
	for v := VNodeID(0); v < 3; v++ {
		for inst := 1; inst <= 20; inst++ {
			evs = append(evs, ev{v, inst, (inst+int(v))%3 != 0})
			evs = append(evs, ev{v, inst, false})
		}
	}
	forward := NewMonitor()
	for _, e := range evs {
		observe(forward, e.v, e.inst, e.green)
	}
	reversed := NewMonitor()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := len(evs) - 1 - w; i >= 0; i -= 4 {
				observe(reversed, evs[i].v, evs[i].inst, evs[i].green)
			}
		}(w)
	}
	wg.Wait()
	for v := VNodeID(0); v < 3; v++ {
		if !reflect.DeepEqual(forward.Report(v), reversed.Report(v)) {
			t.Fatalf("vnode %d: report depends on observation order", v)
		}
	}
}

func TestMonitorReportThroughCountsSilence(t *testing.T) {
	m := NewMonitor()
	// Observed only through instance 4; the run's horizon was 8.
	for inst := 1; inst <= 4; inst++ {
		observe(m, 0, inst, inst != 3)
	}
	rep := m.ReportThrough(0, 8)
	if rep.Instances != 8 || rep.Green != 3 || rep.Unavailable != 5 {
		t.Fatalf("instances/green/unavailable = %d/%d/%d", rep.Instances, rep.Green, rep.Unavailable)
	}
	want := []Stall{
		{From: 3, Len: 1, Ended: true},
		{From: 5, Len: 4, Ended: false}, // silenced through the horizon
	}
	if !reflect.DeepEqual(rep.Stalls, want) {
		t.Errorf("stalls = %+v, want %+v", rep.Stalls, want)
	}
	s := m.SummaryThrough(1, 8)
	if s.MaxStall != 4 || s.Unavailable != 5 {
		t.Errorf("summary = %+v", s)
	}
}

// refMonitor is the map-of-sets monitor the run-based one replaced, kept as
// the reference model: every green instance is a map entry, and a report
// marks a dense []bool up to the horizon.
type refMonitor struct {
	greens map[VNodeID]map[cha.Instance]bool
	top    map[VNodeID]cha.Instance
}

func newRefMonitor() *refMonitor {
	return &refMonitor{
		greens: make(map[VNodeID]map[cha.Instance]bool),
		top:    make(map[VNodeID]cha.Instance),
	}
}

func (m *refMonitor) observe(v VNodeID, out cha.Output) {
	if out.Color == cha.Green {
		g := m.greens[v]
		if g == nil {
			g = make(map[cha.Instance]bool)
			m.greens[v] = g
		}
		g[out.Instance] = true
	}
	if out.Instance > m.top[v] {
		m.top[v] = out.Instance
	}
}

func (m *refMonitor) reportThrough(v VNodeID, top int) AvailabilityReport {
	greens := make([]bool, top+1)
	for k := range m.greens[v] {
		if int(k) <= top {
			greens[k] = true
		}
	}
	rep := AvailabilityReport{Instances: top}
	run := 0
	for k := 1; k <= top; k++ {
		if greens[k] {
			rep.Green++
			if run > 0 {
				rep.Stalls = append(rep.Stalls, Stall{From: cha.Instance(k - run), Len: run, Ended: true})
				run = 0
			}
			continue
		}
		run++
	}
	if run > 0 {
		rep.Stalls = append(rep.Stalls, Stall{From: cha.Instance(top + 1 - run), Len: run})
	}
	rep.Unavailable = rep.Instances - rep.Green
	if rep.Instances > 0 {
		rep.Availability = float64(rep.Green) / float64(rep.Instances)
	}
	recovered, recoveredLen := 0, 0
	for _, s := range rep.Stalls {
		rep.MaxStall = max(rep.MaxStall, s.Len)
		if s.Ended {
			recovered++
			recoveredLen += s.Len
		}
	}
	if recovered > 0 {
		rep.MeanRecovery = float64(recoveredLen) / float64(recovered)
	}
	return rep
}

func (m *refMonitor) snapshot() MonitorSnapshot {
	var s MonitorSnapshot
	for v := range m.top {
		s.VNodes = append(s.VNodes, v)
	}
	for v := range m.greens {
		if _, ok := m.top[v]; !ok {
			s.VNodes = append(s.VNodes, v)
		}
	}
	slices.Sort(s.VNodes)
	for _, v := range s.VNodes {
		s.Tops = append(s.Tops, m.top[v])
		g := []cha.Instance{}
		for k := range m.greens[v] {
			g = append(g, k)
		}
		slices.Sort(g)
		s.Greens = append(s.Greens, g)
	}
	return s
}

// monitorEvent is one replica output as the emulator hook delivers it.
type monitorEvent struct {
	v   VNodeID
	out cha.Output
}

// randomOutputs returns a shuffled output stream over vnodes 0..nv-1 and
// instances 1..horizon: each instance is green with probability pGreen
// (one to three replicas report it, some of them red or yellow), and some
// instances nobody reports at all.
func randomOutputs(rng *rand.Rand, nv, horizon int, pGreen float64) []monitorEvent {
	var evs []monitorEvent
	colors := []cha.Color{cha.Red, cha.Orange, cha.Yellow}
	for v := 0; v < nv; v++ {
		for k := 1; k <= horizon; k++ {
			if rng.Intn(10) == 0 {
				continue // silenced: no replica reported instance k
			}
			green := rng.Float64() < pGreen
			for r := rng.Intn(3); r >= 0; r-- {
				c := colors[rng.Intn(len(colors))]
				if green && r == 0 {
					c = cha.Green
				}
				evs = append(evs, monitorEvent{VNodeID(v), cha.Output{Instance: cha.Instance(k), Color: c}})
			}
		}
	}
	// Mostly in order, with local disorder like replicas and workers make.
	for i := range evs {
		if j := i + rng.Intn(8); j < len(evs) && rng.Intn(3) == 0 {
			evs[i], evs[j] = evs[j], evs[i]
		}
	}
	if rng.Intn(4) == 0 {
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	}
	return evs
}

// TestMonitorMatchesReference drives the run-based monitor and the
// map-based reference with the same random output streams — out of order,
// duplicated, non-green and silenced instances over several vnodes, with
// Snapshot→Restore cycles in between — and requires identical snapshot
// bytes and identical reports below, at and above each node's top.
func TestMonitorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, horizon := 1+rng.Intn(4), 1+rng.Intn(120)
		pGreen := []float64{0, 0.3, 0.7, 0.95, 1}[rng.Intn(5)]
		evs := randomOutputs(rng, nv, horizon, pGreen)
		m, ref := NewMonitor(), newRefMonitor()
		check := func(at int) {
			t.Helper()
			want := ref.snapshot().AppendTo(nil)
			if got := m.Snapshot().AppendTo(nil); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, after %d outputs: snapshot\n% x\nwant\n% x", seed, at, got, want)
			}
			for v := VNodeID(0); v <= VNodeID(nv); v++ { // vnode nv is never observed
				top := int(ref.top[v])
				for _, through := range []int{0, top / 2, top - 1, top, top + 1, top + 7} {
					if through < 0 {
						continue
					}
					if got, want := m.ReportThrough(v, through), ref.reportThrough(v, through); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, after %d outputs: ReportThrough(%d, %d) = %+v, want %+v", seed, at, v, through, got, want)
					}
				}
				if got, want := m.Report(v), ref.reportThrough(v, top); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Report(%d) = %+v, want %+v", seed, v, got, want)
				}
			}
			for _, through := range []int{0, horizon - 1, horizon, horizon + 3} {
				got := m.SummaryThrough(nv+1, through)
				want := m.summarize(nv+1, func(v VNodeID) AvailabilityReport { return ref.reportThrough(v, through) })
				if got != want {
					t.Fatalf("seed %d: SummaryThrough(%d, %d) = %+v, want %+v", seed, nv+1, through, got, want)
				}
			}
		}
		for i, e := range evs {
			m.Observe(e.v, e.out)
			ref.observe(e.v, e.out)
			if rng.Intn(40) == 0 {
				check(i + 1)
				restored := NewMonitor()
				restored.Restore(m.Snapshot())
				m = restored
			}
		}
		check(len(evs))
	}
}

// TestMonitorSteadyStateAllocs pins the monitor's cost to its stalls, not
// its horizon, with counters instead of a clock: an always-green node holds
// one run after 1,000 and after 100,000 instances and reports with zero
// allocations; a node with s interior stalls holds s+1 runs.
func TestMonitorSteadyStateAllocs(t *testing.T) {
	for _, horizon := range []int{1_000, 100_000} {
		t.Run(fmt.Sprint(horizon), func(t *testing.T) {
			m := NewMonitor()
			const stalls = 7
			for k := 1; k <= horizon; k++ {
				for v := VNodeID(0); v < 3; v++ {
					observe(m, v, k, true)
				}
				// vnode 3 misses one instance at each of 7 interior points.
				observe(m, 3, k, k%(horizon/(stalls+1)) != 0 || k == horizon)
			}
			for v := VNodeID(0); v < 3; v++ {
				if n := len(m.nodes[v].runs); n != 1 {
					t.Errorf("always-green vnode %d holds %d runs, want 1", v, n)
				}
			}
			if n := len(m.nodes[3].runs); n != stalls+1 {
				t.Errorf("vnode with %d stalls holds %d runs, want %d", stalls, n, stalls+1)
			}
			if rep := m.ReportThrough(3, horizon); len(rep.Stalls) != stalls {
				t.Errorf("vnode 3 reports %d stalls, want %d", len(rep.Stalls), stalls)
			}
			if a := testing.AllocsPerRun(100, func() { m.ReportThrough(1, horizon) }); a != 0 {
				t.Errorf("ReportThrough on an always-green vnode allocates %.1f times at horizon %d, want 0", a, horizon)
			}
		})
	}
}

// TestMonitorConcurrentObserveMatchesSequential feeds shuffled, overlapping
// output streams from several goroutines, as the parallel engine's workers
// do, and requires the snapshot bytes of a sequential feed.
func TestMonitorConcurrentObserveMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := randomOutputs(rng, 3, 200, 0.8)
		seq := NewMonitor()
		for _, e := range evs {
			seq.Observe(e.v, e.out)
		}
		want := seq.Snapshot().AppendTo(nil)

		const workers = 4
		par := NewMonitor()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			// Worker w feeds its own shuffle of the half of the stream that
			// starts w quarters in (wrapping), so every output is fed twice.
			var part []monitorEvent
			for j := 0; j < (len(evs)+1)/2; j++ {
				part = append(part, evs[(w*len(evs)/workers+j)%len(evs)])
			}
			rand.New(rand.NewSource(seed*10+int64(w))).Shuffle(len(part), func(i, j int) {
				part[i], part[j] = part[j], part[i]
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, e := range part {
					par.Observe(e.v, e.out)
				}
			}()
		}
		wg.Wait()
		if got := par.Snapshot().AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: concurrent snapshot\n% x\nwant\n% x", seed, got, want)
		}
	}
}

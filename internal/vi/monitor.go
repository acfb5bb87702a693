package vi

import (
	"cmp"
	"slices"
	"sync"

	"vinfra/internal/cha"
)

// Monitor accumulates per-virtual-node availability from replica outputs:
// which agreement instances (= virtual rounds) reached green on at least one
// replica, and — derived from that — exactly when and for how long each
// virtual node was unavailable. It is the measurement half of the adversary
// plane: experiments wire Observe into EmulatorHooks.OnOutput and read the
// per-node reports (or the deployment-wide summary) after the run.
//
// Observe is safe for concurrent use: the parallel engine fans Receive calls
// (and therefore output hooks) across workers. Accumulation is a set union,
// so the reports are independent of observation order — the same determinism
// contract as the rest of the stack (sequential == parallel).
//
// Each virtual node's green instances are kept as sorted, disjoint runs, so
// memory and every report cost O(stalls), not O(horizon): a node that never
// stalled holds one run however long the deployment lives.
type Monitor struct {
	mu    sync.Mutex
	nodes map[VNodeID]*account
}

// account is one virtual node's accounting: the highest instance observed
// and the green instances as maximal runs [lo,hi], ascending, with at least
// one non-green instance between neighbours. Its gaps below top are
// exactly the node's stalls.
type account struct {
	top  cha.Instance
	runs []greenRun
}

type greenRun struct{ lo, hi cha.Instance }

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{nodes: make(map[VNodeID]*account)}
}

// Observe records one replica's output for virtual node v. Wire it into
// EmulatorHooks.OnOutput. Instances number from 1; an output for instance
// 0 (the "no instance" sentinel) carries no accounting and is ignored.
func (m *Monitor) Observe(v VNodeID, out cha.Output) {
	k := out.Instance
	if k < 1 {
		return
	}
	m.mu.Lock()
	a := m.nodes[v]
	if a == nil {
		a = &account{}
		m.nodes[v] = a
	}
	if k > a.top {
		a.top = k
	}
	if out.Color == cha.Green {
		a.addGreen(k)
	}
	m.mu.Unlock()
}

// addGreen adds instance k (>= 1) to the green runs. In-order outputs
// extend or follow the last run in O(1); late and duplicate ones, which
// several replicas and the parallel engine's workers produce, binary-search
// for the run to join, merging two runs when k fills the gap between them.
func (a *account) addGreen(k cha.Instance) {
	n := len(a.runs)
	switch {
	case n > 0 && k == a.runs[n-1].hi+1:
		a.runs[n-1].hi = k
		return
	case n == 0 || k > a.runs[n-1].hi+1:
		a.runs = append(a.runs, greenRun{k, k})
		return
	}
	// i is the first run ending at or after k-1; i < n, since the last
	// run ends at or after k-1.
	i, _ := slices.BinarySearchFunc(a.runs, k-1, func(r greenRun, t cha.Instance) int {
		return cmp.Compare(r.hi, t)
	})
	r := &a.runs[i]
	switch {
	case k >= r.lo && k <= r.hi:
		// Already green.
	case k == r.hi+1:
		r.hi = k
		if i+1 < n && a.runs[i+1].lo == k+1 {
			r.hi = a.runs[i+1].hi
			a.runs = slices.Delete(a.runs, i+1, i+2)
		}
	case k == r.lo-1:
		// The previous run ends below k-1 (by the choice of i), so no
		// merge backwards.
		r.lo = k
	default:
		a.runs = slices.Insert(a.runs, i, greenRun{k, k})
	}
}

// Stall is one maximal run of consecutive unavailable instances of a
// virtual node: no replica reached green from instance From through
// From+Len-1. Ended reports whether the node recovered (the next instance
// was green again) before the end of the run; a stall still open at the
// horizon has Ended false, and its length is a lower bound.
type Stall struct {
	From  cha.Instance
	Len   int
	Ended bool
}

// AvailabilityReport is one virtual node's availability accounting.
type AvailabilityReport struct {
	// Instances is the highest instance observed (instance k is virtual
	// round k, so this is the number of virtual rounds accounted).
	Instances int
	// Green is the number of instances in which >= 1 replica output green.
	Green int
	// Unavailable = Instances - Green.
	Unavailable int
	// Availability = Green / Instances (0 when nothing was observed).
	Availability float64
	// Stalls lists the maximal unavailable runs in instance order.
	Stalls []Stall
	// MaxStall is the longest stall length (0 when always available).
	MaxStall int
	// MeanRecovery is the mean length of the stalls the node recovered
	// from — the expected number of virtual rounds from losing the node to
	// getting it back. 0 when no stall ended.
	MeanRecovery float64
}

// Report computes virtual node v's availability accounting over the
// instances it was actually observed through. When an attack can silence a
// node entirely (no replica left to output anything), use ReportThrough
// with the run's horizon instead: instances past the last observation
// count as unavailable there, not unobserved.
func (m *Monitor) Report(v VNodeID) AvailabilityReport {
	m.mu.Lock()
	top := 0
	if a := m.nodes[v]; a != nil {
		top = int(a.top)
	}
	m.mu.Unlock()
	return m.ReportThrough(v, top)
}

// ReportThrough computes virtual node v's availability accounting over
// instances 1..through: an instance no replica reached green in — including
// one no replica reported at all — is unavailable. It walks v's green runs,
// so it costs O(stalls) and allocates only the Stalls list.
func (m *Monitor) ReportThrough(v VNodeID, through int) AvailabilityReport {
	rep := AvailabilityReport{Instances: through}
	end := cha.Instance(through)
	next := cha.Instance(1) // lowest instance not yet accounted
	m.mu.Lock()
	if a := m.nodes[v]; a != nil {
		for _, r := range a.runs {
			if r.lo > end {
				break
			}
			if r.lo > next {
				rep.Stalls = append(rep.Stalls, Stall{From: next, Len: int(r.lo - next), Ended: true})
			}
			hi := min(r.hi, end)
			rep.Green += int(hi - r.lo + 1)
			next = hi + 1
		}
	}
	m.mu.Unlock()
	if next <= end {
		rep.Stalls = append(rep.Stalls, Stall{From: next, Len: int(end - next + 1)})
	}
	rep.Unavailable = rep.Instances - rep.Green
	if rep.Instances > 0 {
		rep.Availability = float64(rep.Green) / float64(rep.Instances)
	}
	recovered, recoveredLen := 0, 0
	for _, s := range rep.Stalls {
		if s.Len > rep.MaxStall {
			rep.MaxStall = s.Len
		}
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

// AvailabilitySummary aggregates availability accounting across a
// deployment's virtual nodes.
type AvailabilitySummary struct {
	MeanAvailability float64
	Unavailable      int // total unavailable instances across all nodes
	Stalls           int // total maximal stalls across all nodes
	MaxStall         int // longest stall anywhere
	MeanRecovery     float64
}

// Summary aggregates the reports of virtual nodes 0..vnodes-1.
func (m *Monitor) Summary(vnodes int) AvailabilitySummary {
	return m.summarize(vnodes, m.Report)
}

// SummaryThrough aggregates ReportThrough(v, through) over virtual nodes
// 0..vnodes-1 — the right accounting when the adversary may have silenced
// nodes outright.
func (m *Monitor) SummaryThrough(vnodes, through int) AvailabilitySummary {
	return m.summarize(vnodes, func(v VNodeID) AvailabilityReport {
		return m.ReportThrough(v, through)
	})
}

func (m *Monitor) summarize(vnodes int, report func(VNodeID) AvailabilityReport) AvailabilitySummary {
	var s AvailabilitySummary
	recovered, recoveredLen := 0, 0
	for v := 0; v < vnodes; v++ {
		rep := report(VNodeID(v))
		s.MeanAvailability += rep.Availability
		s.Unavailable += rep.Unavailable
		s.Stalls += len(rep.Stalls)
		if rep.MaxStall > s.MaxStall {
			s.MaxStall = rep.MaxStall
		}
		for _, st := range rep.Stalls {
			if st.Ended {
				recovered++
				recoveredLen += st.Len
			}
		}
	}
	if vnodes > 0 {
		s.MeanAvailability /= float64(vnodes)
	}
	if recovered > 0 {
		s.MeanRecovery = float64(recoveredLen) / float64(recovered)
	}
	return s
}

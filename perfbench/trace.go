package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"vinfra/internal/sim"
)

// span is one timed call into a layer, recorded by benchmark code around a
// public call. Parent links the span that caused it (0 = root); Req ties
// the client span of one HTTP request to the service span that handled it.
type span struct {
	ID, Parent, Req int32
	Name            string
	Start, End      int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pass through the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, req int32, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	return t.push(span{Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// begin records a root span whose end is not known yet, so children can
// link to it; end fills the end in.
func (t *tracer) begin(name string, req int32, start time.Time) int32 {
	if t == nil {
		return 0
	}
	return t.push(span{Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: -1})
}

// ownID as a span's request ID makes the span start a request of its own:
// its request ID is its span ID.
const ownID = -1

func (t *tracer) push(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int32(len(t.spans) + 1)
	if s.Req == ownID {
		s.Req = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int32, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// durations returns the durations, in seconds, of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// transport returns, for every request of the operation, the client's
// round trip minus the time the service spent inside ServeHTTP.
func (t *tracer) transport(op string) []float64 {
	inside := map[int32]int64{}
	for _, s := range t.spans {
		if s.Name == "service."+op && s.Req != 0 {
			inside[s.Req] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if d, ok := inside[s.Req]; ok && s.Name == "client."+op {
			out = append(out, float64(s.End-s.Start-d)/1e9)
		}
	}
	return out
}

// selfTime is one span name's total and self time. A span's self time is
// its duration minus the part of it its child spans cover.
type selfTime struct {
	Name        string
	Spans       int
	Total, Self float64 // seconds
}

func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	var names []string
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		st.Spans++
		st.Total += float64(d) / 1e9
		st.Self += float64(max(d-child[s.ID], 0)) / 1e9
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSelfTimes prints the per-span-name self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "  self time by span (%d spans):\n", len(t.spans))
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "    %-30s %9d spans  total %10.4fs  self %10.4fs\n", st.Name, st.Spans, st.Total, st.Self)
	}
}

// writeFile writes every span as one line of gzipped CSV:
// id,parent,req,name,start_ns,end_ns.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level never errors
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,req,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	err = bw.Flush()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// roundProbe is the traced run's engine hook. It closes each round's span
// (from the previous hook's return to this hook's entry), then replays the
// round's transmissions through a separate radio medium built from the
// same configuration, outside the round span, and compares the replayed
// receptions with the engine's for every alive node.
type roundProbe struct {
	tr     *tracer
	eng    *sim.Engine
	replay sim.Medium
	res    *result

	step int32     // the enclosing World.StepVRound span
	last time.Time // when the previous hook returned

	info []sim.NodeInfo
	txs  []sim.Transmission

	rounds, rxMsgs, collisions int
}

func (p *roundProbe) attach() { p.eng.OnRound(p.hook) }

// beginStep marks the start of a World.StepVRound call: its first round's
// span starts here rather than at the previous vround's last hook.
func (p *roundProbe) beginStep(step int32, at time.Time) {
	p.step = step
	p.last = at
}

func (p *roundProbe) hook(r sim.Round, txs []sim.Transmission, rxs []sim.Reception) {
	p.tr.add("sim.round", p.step, 0, p.last, time.Now())

	n := p.eng.NumNodes()
	p.info = p.info[:0]
	for i := 0; i < n; i++ {
		id := sim.NodeID(i)
		p.info = append(p.info, sim.NodeInfo{ID: id, At: p.eng.Position(id), Alive: p.eng.Alive(id)})
	}
	p.txs = append(p.txs[:0], txs...)
	start := time.Now()
	got := p.replay.Deliver(r, p.txs, p.info)
	p.tr.add("radio.Medium.Deliver", p.step, 0, start, time.Now())

	// The engine's receptions are counted in full, whatever the replay
	// gave; the comparison is a separate pass.
	for i := 0; i < min(n, len(rxs)); i++ {
		if !p.info[i].Alive {
			continue
		}
		p.rxMsgs += len(rxs[i].Msgs)
		if rxs[i].Collision {
			p.collisions++
		}
	}
	same := len(got) == len(rxs)
	for i := 0; same && i < min(n, len(rxs)); i++ {
		if p.info[i].Alive {
			same = sameReception(got[i], rxs[i])
		}
	}
	p.res.expect("replay_equal", same, "round %d: replayed receptions differ from the engine's", r)
	p.rounds++
	p.last = time.Now()
}

func sameReception(a, b sim.Reception) bool {
	if a.Collision != b.Collision || len(a.Msgs) != len(b.Msgs) {
		return false
	}
	for i := range a.Msgs {
		if !reflect.DeepEqual(a.Msgs[i], b.Msgs[i]) {
			return false
		}
	}
	return true
}

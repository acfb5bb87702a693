package sim

import (
	"bytes"
	"reflect"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/wire"
)

// counterNode exercises both halves of the engine snapshot: it carries
// Snapshotter state (a running count of messages heard) and consumes the
// node's deterministic RNG stream every round, so a restore that misplaces
// either diverges immediately.
type counterNode struct {
	env   Env
	count int
}

func (n *counterNode) Transmit(r Round) Message {
	if n.env.Intn(3) == 0 {
		return nil
	}
	return n.env.ID()
}

func (n *counterNode) Receive(_ Round, rx Reception) {
	n.count += len(rx.Msgs)
}

func (n *counterNode) AppendState(dst []byte) []byte {
	return wire.AppendUvarint(dst, uint64(n.count))
}

func (n *counterNode) RestoreState(data []byte) error {
	d := wire.Dec(data)
	n.count = int(d.Uvarint())
	return d.Finish()
}

// phaseMover is a stateful mover: Snapshotter, so its phase survives.
type phaseMover struct {
	phase int
}

func (m *phaseMover) Move(_ Round, cur geo.Point, _ func(int) int) geo.Point {
	m.phase++
	return geo.Point{X: cur.X + float64(m.phase%3), Y: cur.Y}
}

func (m *phaseMover) AppendState(dst []byte) []byte {
	return wire.AppendUvarint(dst, uint64(m.phase))
}

func (m *phaseMover) RestoreState(data []byte) error {
	d := wire.Dec(data)
	m.phase = int(d.Uvarint())
	return d.Finish()
}

func snapshotEngine(n int, opts ...Option) (*Engine, []*counterNode) {
	e := NewEngine(perfectMedium{}, append([]Option{WithSeed(42)}, opts...)...)
	nodes := make([]*counterNode, n)
	for i := 0; i < n; i++ {
		i := i
		e.Attach(geo.Point{X: float64(i)}, &phaseMover{}, func(env Env) Node {
			nodes[i] = &counterNode{env: env}
			return nodes[i]
		})
	}
	return e, nodes
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	e, _ := snapshotEngine(5)
	e.CrashAt(3, 9)
	e.CrashAt(1, 9)
	e.CrashAt(2, 12)
	e.Run(4)

	s := e.Snapshot()
	b := s.AppendTo(nil)
	if len(b) != s.WireSize() {
		t.Fatalf("WireSize = %d, encoded %d bytes", s.WireSize(), len(b))
	}
	got, err := DecodeEngineSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("decode(encode(s)) != s:\ngot:  %+v\nwant: %+v", got, s)
	}
	if !bytes.Equal(got.AppendTo(nil), b) {
		t.Fatal("re-encoding the decoded snapshot changes bytes")
	}
	// Snapshots are canonical: taking a second one is byte-identical.
	if !bytes.Equal(e.Snapshot().AppendTo(nil), b) {
		t.Fatal("two snapshots of the same state differ")
	}
}

func TestEngineRestoreEqualsUninterrupted(t *testing.T) {
	straight, _ := snapshotEngine(6)
	straight.CrashAt(4, 7)
	straight.Run(12)
	want := straight.Snapshot().AppendTo(nil)

	a, _ := snapshotEngine(6)
	a.CrashAt(4, 7)
	a.Run(5) // mid-schedule: the CrashAt for round 7 is still pending
	snap := a.Snapshot()

	b, _ := snapshotEngine(6)
	b.CrashAt(4, 7)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b.Run(7)
	if got := b.Snapshot().AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatal("restored engine diverges from the uninterrupted run")
	}
}

func TestEngineRestoreValidation(t *testing.T) {
	e, _ := snapshotEngine(4)
	e.Run(3)
	snap := e.Snapshot()

	smaller, _ := snapshotEngine(3)
	if err := smaller.Restore(snap); err == nil {
		t.Fatal("restore onto an engine with fewer nodes succeeded")
	}

	otherSeed := NewEngine(perfectMedium{})
	for i := 0; i < 4; i++ {
		otherSeed.Attach(geo.Point{X: float64(i)}, &phaseMover{}, func(env Env) Node {
			return &counterNode{env: env}
		})
	}
	if err := otherSeed.Restore(snap); err == nil {
		t.Fatal("restore onto an engine with a different seed succeeded")
	}

	// A node blob aimed at a non-Snapshotter means the deployment was
	// rebuilt with different constructors: an error, not silent data loss.
	plain := NewEngine(perfectMedium{}, WithSeed(42))
	for i := 0; i < 4; i++ {
		plain.Attach(geo.Point{X: float64(i)}, nil, func(Env) Node {
			return &silentNode{}
		})
	}
	if err := plain.Restore(snap); err == nil {
		t.Fatal("restore of node state onto a non-Snapshotter succeeded")
	}
}

func FuzzDecodeEngineSnapshot(f *testing.F) {
	e, _ := snapshotEngine(3)
	e.CrashAt(1, 5)
	e.Run(2)
	f.Add(e.Snapshot().AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeEngineSnapshot(b)
		if err != nil {
			return
		}
		// Valid decodes are canonical fixed points.
		out := s.AppendTo(nil)
		if len(out) != s.WireSize() {
			t.Fatalf("WireSize = %d, encoded %d bytes", s.WireSize(), len(out))
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("decode/re-encode not canonical:\nin:  %x\nout: %x", b, out)
		}
	})
}

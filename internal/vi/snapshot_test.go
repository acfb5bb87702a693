package vi

import (
	"bytes"
	"reflect"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/wire"
)

func emulatorSnapshotFixtures() []EmulatorSnapshot {
	return []EmulatorSnapshot{
		{VN: None}, // outside every region
		{
			VN: 2, Joined: false, Mgr: []byte{0x04},
			Requested: true, SawJoinActivity: true,
		},
		{
			VN: 0, Joined: true,
			Mgr: []byte{0x02},
			Core: cha.CoreSnapshot{
				Floor: 1, K: 4, Prev: 3,
				BallotKeys: []cha.Instance{3, 4},
				Ballots:    []cha.Ballot{{V: cha.V("a"), Prev: 2}, {V: cha.V("bb"), Prev: 3}},
				StatusKeys: []cha.Instance{2},
				Statuses:   []cha.Color{cha.Green},
			},
			BrokenChains: 2,
			Floor:        1,
			FloorState:   []byte("floor-state"),
			InMsgs:       [][]byte{[]byte("m1"), {}, []byte("m3")},
			InCollision:  true, Began: true,
			HasExpected: true, Expected: []byte("payload"),
			BroadcastBallot: true, GotAck: true,
		},
	}
}

// TestEmulatorSnapshotRoundTrip pins the emulator snapshot's wire trio on
// representative states: outside a region, mid-join, and joined with a
// populated core plus mid-vround scratch.
func TestEmulatorSnapshotRoundTrip(t *testing.T) {
	for i, s := range emulatorSnapshotFixtures() {
		b := s.AppendTo(nil)
		if len(b) != s.WireSize() {
			t.Fatalf("fixture %d: WireSize = %d, encoded %d bytes", i, s.WireSize(), len(b))
		}
		d := wire.Dec(b)
		got, err := DecodeEmulatorSnapshot(&d)
		if err != nil {
			t.Fatalf("fixture %d: decode: %v", i, err)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("fixture %d: finish: %v", i, err)
		}
		if !bytes.Equal(got.AppendTo(nil), b) {
			t.Fatalf("fixture %d: re-encoding changes bytes", i)
		}
	}
}

// TestClientSnapshotRoundTrip pins the client snapshot's wire trio.
func TestClientSnapshotRoundTrip(t *testing.T) {
	fixtures := []ClientSnapshot{
		{},
		{
			SentPayload: []byte("ping"), SentThis: true,
			Recv:      [][]byte{[]byte("count=3"), {}},
			Collision: true,
			Prog:      []byte{0x09},
		},
	}
	for i, s := range fixtures {
		b := s.AppendTo(nil)
		if len(b) != s.WireSize() {
			t.Fatalf("fixture %d: WireSize = %d, encoded %d bytes", i, s.WireSize(), len(b))
		}
		d := wire.Dec(b)
		got, err := DecodeClientSnapshot(&d)
		if err != nil {
			t.Fatalf("fixture %d: decode: %v", i, err)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("fixture %d: finish: %v", i, err)
		}
		if !bytes.Equal(got.AppendTo(nil), b) {
			t.Fatalf("fixture %d: re-encoding changes bytes", i)
		}
	}
}

// TestMonitorSnapshotRoundTrip drives a live monitor, snapshots it,
// restores into a fresh one, and pins both the canonical bytes and the
// derived reports.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	m := NewMonitor()
	m.Observe(0, cha.Output{Instance: 1, Color: cha.Green})
	m.Observe(0, cha.Output{Instance: 2, Color: cha.Red})
	m.Observe(1, cha.Output{Instance: 1, Color: cha.Green})
	m.Observe(1, cha.Output{Instance: 3, Color: cha.Green})

	s := m.Snapshot()
	b := s.AppendTo(nil)
	if len(b) != s.WireSize() {
		t.Fatalf("WireSize = %d, encoded %d bytes", s.WireSize(), len(b))
	}
	got, err := DecodeMonitorSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendTo(nil), b) {
		t.Fatal("re-encoding the decoded snapshot changes bytes")
	}

	fresh := NewMonitor()
	fresh.Restore(got)
	if !bytes.Equal(fresh.Snapshot().AppendTo(nil), b) {
		t.Fatal("snapshot of the restored monitor differs from the original")
	}
	for v := VNodeID(0); v < 2; v++ {
		if a, b := m.Report(v), fresh.Report(v); !reflect.DeepEqual(a, b) {
			t.Fatalf("vnode %d: restored report %+v, original %+v", v, b, a)
		}
	}
}

// FuzzDecodeEmulatorSnapshot feeds adversarial bytes to the emulator
// snapshot decoder: it must never panic, and anything it accepts must be a
// canonical fixed point with an exact WireSize.
func FuzzDecodeEmulatorSnapshot(f *testing.F) {
	f.Add([]byte{})
	for _, s := range emulatorSnapshotFixtures() {
		f.Add(s.AppendTo(nil))
	}
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.Dec(data)
		s, err := DecodeEmulatorSnapshot(&d)
		if err != nil || d.Finish() != nil {
			return
		}
		out := s.AppendTo(nil)
		if len(out) != s.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", s.WireSize(), len(out))
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot re-encodes to % x, input % x", out, data)
		}
	})
}

// FuzzDecodeMonitorSnapshot is the same contract for the monitor layer.
func FuzzDecodeMonitorSnapshot(f *testing.F) {
	f.Add([]byte{})
	m := NewMonitor()
	m.Observe(0, cha.Output{Instance: 1, Color: cha.Green})
	m.Observe(3, cha.Output{Instance: 2, Color: cha.Green})
	f.Add(m.Snapshot().AppendTo(nil))
	f.Add([]byte{0x01, 0x00})
	for _, b := range invalidMonitorSnapshots {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeMonitorSnapshot(data)
		if err != nil {
			return
		}
		out := s.AppendTo(nil)
		if len(out) != s.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", s.WireSize(), len(out))
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot re-encodes to % x, input % x", out, data)
		}
		// An accepted snapshot restores to a monitor that snapshots back
		// to the same bytes and whose readers do not panic.
		m := NewMonitor()
		m.Restore(s)
		if again := m.Snapshot().AppendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("restored monitor snapshots to % x, input % x", again, data)
		}
		for i, v := range s.VNodes {
			top := int(s.Tops[i])
			for _, through := range []int{0, top, top + 5} {
				m.ReportThrough(v, through)
			}
		}
	})
}

// invalidMonitorSnapshots are encodings Monitor.Snapshot never produces;
// the decoder must reject each.
var invalidMonitorSnapshots = map[string][]byte{
	// A green uvarint of 2^64-1 casts to instance -1; restored, it made
	// ReportThrough index a slice at -1.
	"green cast negative": {0x01, 0x00, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	"top cast negative":   {0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00},
	"top zero":            {0x01, 0x00, 0x00, 0x00},
	"green zero":          {0x01, 0x00, 0x02, 0x01, 0x00},
	"green above top":     {0x01, 0x00, 0x02, 0x01, 0x03},
	"greens descending":   {0x01, 0x00, 0x05, 0x02, 0x03, 0x02},
	"greens duplicated":   {0x01, 0x00, 0x05, 0x02, 0x03, 0x03},
	"vnodes descending":   {0x02, 0x04, 0x01, 0x00, 0x02, 0x01, 0x00},
	"vnodes duplicated":   {0x02, 0x02, 0x01, 0x00, 0x02, 0x01, 0x00},
}

func TestDecodeMonitorSnapshotRejectsInvalid(t *testing.T) {
	for name, b := range invalidMonitorSnapshots {
		if s, err := DecodeMonitorSnapshot(b); err == nil {
			t.Errorf("%s: accepted % x as %+v", name, b, s)
		}
	}
	// The same shapes made valid decode fine, so each case above fails on
	// the property it names, not on framing.
	for _, b := range [][]byte{
		{0x01, 0x00, 0x01, 0x01, 0x01},
		{0x01, 0x00, 0x05, 0x02, 0x02, 0x03},
		{0x02, 0x02, 0x01, 0x00, 0x04, 0x01, 0x00},
	} {
		if _, err := DecodeMonitorSnapshot(b); err != nil {
			t.Errorf("rejected valid % x: %v", b, err)
		}
	}
}

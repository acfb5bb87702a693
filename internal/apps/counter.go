package apps

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// CounterState is the state of the counter virtual node: the number of
// client messages it has applied. Its wire encoding is one uvarint.
type CounterState struct {
	Pings int
}

// CounterProgram returns the counter virtual node program, the reference
// program of the experiment suite and the default app of a deployment
// spec: it counts client messages and broadcasts "count=N" whenever it is
// scheduled. Its state stays one integer however long the run, so a
// virtual round costs the same at round ten and at round ten thousand.
func CounterProgram(sched vi.Schedule) func(vi.VNodeID) vi.Program {
	return func(v vi.VNodeID) vi.Program {
		return vi.Codec[CounterState]{
			InitState: func(vi.VNodeID, geo.Point) CounterState { return CounterState{} },
			Step: func(s CounterState, _ int, in vi.RoundInput) CounterState {
				s.Pings += len(in.Msgs)
				return s
			},
			Out: func(s CounterState, vround int) *vi.Message {
				if !sched.ScheduledIn(v, vround-1) {
					return nil
				}
				return vi.Text(fmt.Sprintf("count=%d", s.Pings))
			},
			EncodeState: func(dst []byte, s CounterState) []byte {
				return wire.AppendUvarint(dst, uint64(s.Pings))
			},
			DecodeState: func(d *wire.Decoder) (CounterState, error) {
				return CounterState{Pings: int(d.Uvarint())}, d.Err()
			},
		}
	}
}

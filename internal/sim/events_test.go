package sim

import (
	"container/heap"
	"testing"
)

// refEvent is what the reference queue keeps of an event: its firing
// key.
type refEvent struct {
	cycle int64
	seq   uint64
}

// refHeap is the reference the lanes are checked against: a binary
// min-heap on (cycle, seq), the order the SM's events always fired in.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// FuzzEventLanes checks that the lanes fire events in the reference
// heap's order. The first byte picks how many delays there are and the
// next bytes pick the delays. Each later byte either schedules an event
// on one of the delays, or advances the clock and fires everything due;
// a fired event may schedule another, as a writeback or a memory return
// does.
func FuzzEventLanes(f *testing.F) {
	f.Add([]byte{9, 1, 1, 2, 3, 4, 4, 16, 24, 200, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0x81, 0x83, 0x8f, 0xff})
	f.Add([]byte{2, 0, 5, 0, 1, 0, 1, 0x80, 0x80, 0xc1, 0, 0xc0})
	f.Add([]byte{3, 7, 7, 7, 0, 1, 2, 0x84, 2, 1, 0x87})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%maxLanes
		data = data[1:]
		var delays []int
		for len(delays) < k && len(data) > 0 {
			delays = append(delays, int(data[0]))
			data = data[1:]
		}
		q := newEventQueue(delays...)
		var ref refHeap
		var now int64
		var seq uint64
		push := func(delay int) {
			seq++
			q.push(now, delay, event{})
			heap.Push(&ref, refEvent{now + int64(delay), seq})
		}
		// budget bounds the events fired events may schedule, so a
		// zero delay cannot chain forever.
		budget := 1024
		fire := func(chain bool) {
			for {
				e, ok := q.popDue(now)
				due := ref.Len() > 0 && ref[0].cycle <= now
				if ok != due {
					t.Fatalf("cycle %d: lanes fired %v, reference heap %v", now, ok, due)
				}
				if !ok {
					return
				}
				want := heap.Pop(&ref).(refEvent)
				if e.cycle != want.cycle || e.seq != want.seq {
					t.Fatalf("cycle %d: lanes fired (%d, %d), reference heap (%d, %d)",
						now, e.cycle, e.seq, want.cycle, want.seq)
				}
				if chain && budget > 0 && e.seq%3 == 0 {
					budget--
					push(delays[int(e.seq/3)%len(delays)])
				}
			}
		}
		for _, b := range data {
			if b&0x80 == 0 {
				push(delays[int(b)%len(delays)])
				continue
			}
			now += int64(b & 0x0f)
			fire(b&0x40 != 0)
			if q.n != ref.Len() {
				t.Fatalf("cycle %d: %d events pending in the lanes, %d in the reference heap", now, q.n, ref.Len())
			}
		}
		now += 1 << 10
		fire(false)
		if q.n != 0 || ref.Len() != 0 {
			t.Fatalf("after draining: %d events in the lanes, %d in the reference heap", q.n, ref.Len())
		}
	})
}

// BenchmarkEventQueue schedules and fires events at the default
// config's delay mix: each iteration schedules one event on the next of
// the SM's nine delays, and every other iteration advances the clock one
// cycle and fires the events due. About 60 events are in flight.
func BenchmarkEventQueue(b *testing.B) {
	cfg := DefaultConfig()
	delays := cfg.eventDelays()
	q := newEventQueue(delays[:]...)
	b.ReportAllocs()
	var now int64
	for i := 0; i < b.N; i++ {
		q.push(now, delays[i%len(delays)], event{kind: evWriteback})
		if i%2 == 1 {
			now++
			for {
				if _, ok := q.popDue(now); !ok {
					break
				}
			}
		}
	}
}

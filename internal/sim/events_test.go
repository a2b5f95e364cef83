package sim

import (
	"container/heap"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// refEvent is what the reference queue keeps of an event: its firing
// key.
type refEvent struct {
	cycle int64
	seq   int
}

// refHeap is the reference the ring is checked against: a binary
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

// FuzzEventRing checks that the ring fires events in the reference
// heap's order. The first byte picks how many delays there are, up to
// the SM's nine, and each of the next bytes one delay, one more than its
// value mod 255; the ring is sized by the longest, as an SM's is. Each later byte either schedules an event on
// one of the delays, or advances the clock one cycle at a time, as the
// SM ticks, and fires everything due in each cycle; a fired event may
// schedule another, as a writeback or a memory return does. An event's
// pc carries its scheduling number, which names it.
func FuzzEventRing(f *testing.F) {
	// The default config's delays, then the longest delay a 256-slot
	// ring takes beside the shortest.
	f.Add([]byte{9, 0, 0, 1, 2, 3, 3, 15, 23, 199, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0x81, 0x83, 0x8f, 0xff})
	f.Add([]byte{2, 0, 5, 0, 1, 0, 1, 0x80, 0x80, 0xc1, 0, 0xc0})
	f.Add([]byte{3, 7, 7, 7, 0, 1, 2, 0x84, 2, 1, 0x87})
	f.Add([]byte{2, 254, 0, 0, 1, 1, 0, 0xcf, 0, 0xcf, 1, 0xcf})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%9
		data = data[1:]
		var delays []int
		for len(delays) < k && len(data) > 0 {
			delays = append(delays, 1+int(data[0])%255)
			data = data[1:]
		}
		q := newEventQueue(slices.Max(delays))
		var ref refHeap
		var now int64
		seq := 0
		push := func(delay int) {
			seq++
			q.push(now, delay, event{pc: int32(seq)})
			heap.Push(&ref, refEvent{now + int64(delay), seq})
		}
		// budget bounds the events fired events may schedule.
		budget := 1024
		fire := func(chain bool) {
			for {
				e, ok := q.popDue(now)
				due := ref.Len() > 0 && ref[0].cycle <= now
				if ok != due {
					t.Fatalf("cycle %d: ring fired %v, reference heap %v", now, ok, due)
				}
				if !ok {
					return
				}
				// The clock never skips a cycle, so nothing is overdue.
				want := heap.Pop(&ref).(refEvent)
				if want.cycle != now || int(e.pc) != want.seq {
					t.Fatalf("cycle %d: ring fired event %d, reference heap event %d due at cycle %d",
						now, e.pc, want.seq, want.cycle)
				}
				if chain && budget > 0 && want.seq%3 == 0 {
					budget--
					push(delays[want.seq/3%len(delays)])
				}
			}
		}
		tick := func(cycles int, chain bool) {
			for i := 0; i < cycles; i++ {
				now++
				fire(chain)
			}
			if q.n != ref.Len() {
				t.Fatalf("cycle %d: %d events pending in the ring, %d in the reference heap", now, q.n, ref.Len())
			}
		}
		for _, b := range data {
			if b&0x80 == 0 {
				push(delays[int(b)%len(delays)])
				continue
			}
			tick(1+int(b&0x0f), b&0x40 != 0)
		}
		tick(len(q.slots), false)
		if q.n != 0 || ref.Len() != 0 {
			t.Fatalf("after draining: %d events in the ring, %d in the reference heap", q.n, ref.Len())
		}
	})
}

// TestQueuedStateHoldsNoPointers: the events, bank requests, collector
// units, memory requests and read-path flips the SM copies through its
// queues and lists name warps, collectors and instructions by index, so
// they hold no pointer and copying one never runs a write barrier; and
// an event fits in 32 bytes.
func TestQueuedStateHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[i]", ty.Elem())
		}
	}
	for _, v := range []any{event{}, bankReq{}, collectorUnit{}, memReq{}, appliedFlip{}} {
		walk(reflect.TypeOf(v).Name(), reflect.TypeOf(v))
	}
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Errorf("event is %d bytes, want at most 32", n)
	}
}

// BenchmarkEventQueue schedules and fires events at the default
// config's delay mix: each iteration schedules one event on the next of
// the SM's nine delays (four bank latencies, the ALU, FPU, SFU and
// shared-memory latencies, and the memory latency), and every other
// iteration advances the clock one cycle and fires the events due.
// About 60 events are in flight.
func BenchmarkEventQueue(b *testing.B) {
	cfg := DefaultConfig()
	lat := cfg.RF.Lat
	delays := []int{lat.MRF, lat.FRFHigh, lat.FRFLow, lat.SRF,
		cfg.ALULatency, cfg.FPULatency, cfg.SFULatency, cfg.SharedLatency, cfg.MemLatency}
	q := newEventQueue(slices.Max(delays))
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

package core

// This file holds the processor's in-flight storage. Every dynamic
// instruction between distribute and retire lives by value in one
// power-of-two ring; the active list is the ring's [head, tail) window, so
// retire advances head, distribute advances tail, and a replay squash
// rewinds tail to the cut. Instructions name each other by handle (their
// ring position) rather than by pointer, so the storage is reused from
// the first cycle: in steady state nothing allocates, and the only
// pointer per slot left for the garbage collector is the static
// instruction.
//
// Positions are reused, so any reference that can outlive the instruction
// it names is validated before use:
//
//   - references to older instructions (sources, memory dependences,
//     previous producers) compare the position against head: an
//     instruction behind head has retired, and its value is architectural;
//   - buffer-release events and pending branches, which can outlive both
//     retirement and a squash, carry the sequence number, which is never
//     reused, and are ignored once the slot holds another instruction;
//   - rename entries are cleared when their producer retires and unwound
//     by a squash; store-table entries are removed when their store
//     retires or is squashed; parked queue entries (wakeup.go) return to
//     the queues before a squash.

// minRingSize is the smallest active ring; ringSize rounds the structural
// bound up to a power of two no smaller than this.
const minRingSize = 64

// ringSize derives the active ring's size from the machine's capacities:
// every unissued instruction holds a dispatch-queue entry and every issued
// one that writes a register holds a physical register. Issued
// instructions without a destination are not bounded by either, so the
// ring still doubles (grow) if a long retire stall lets the window
// outgrow it.
func (p *Processor) ringSize() int {
	bound := 0
	for c := 0; c < p.cfg.Clusters; c++ {
		bound += p.cfg.QueueSize + p.freeRegs[c][0] + p.freeRegs[c][1]
	}
	n := minRingSize
	for n < bound {
		n <<= 1
	}
	return n
}

// newRing installs an empty ring and scoreboard of n slots. Empty slots
// carry sequence number -1, which no handle-plus-sequence reference can
// match.
func (p *Processor) newRing(n int) {
	p.ring = make([]dynInst, n)
	for i := range p.ring {
		p.ring[i].seq = -1
	}
	p.mask = handle(n - 1)
	for c := range p.ready {
		p.ready[c] = make([]int64, n)
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		p.parked[c] = newParking(n, p.cfg.QueueSize)
	}
}

// setReady records when h's destination becomes readable in cluster c,
// waking the queue entries parked on it.
func (p *Processor) setReady(h handle, c int, cycle int64) {
	p.ready[c][h&p.mask] = cycle
	if p.parked[c].head[h&p.mask] >= 0 {
		p.wake(h, c)
	}
}

// inst returns the ring slot of handle h.
func (p *Processor) inst(h handle) *dynInst { return &p.ring[h&p.mask] }

// retiredH reports whether the instruction at h has left the window through
// retirement. It is only meaningful for an instruction that was in flight
// no more than one ring's length ago — true of every reference held by an
// in-flight instruction to an older one.
func (p *Processor) retiredH(h handle) bool { return int32(h-p.head) < 0 }

// activeLen returns the number of instructions in the active window.
func (p *Processor) activeLen() int { return int(p.tail - p.head) }

// alloc claims the slot at the window's tail for a new instruction,
// growing the ring when the window already fills it.
func (p *Processor) alloc() (handle, *dynInst) {
	if p.activeLen() == len(p.ring) {
		p.grow()
	}
	h := p.tail
	p.tail++
	return h, p.inst(h)
}

// grow doubles the ring. The window fills the old ring exactly, so every
// slot is live and moves to its position's slot in the new ring; handles
// are positions, so no reference needs rewriting. Parked queue entries
// return to the queues first, as the wait lists are indexed by slot.
func (p *Processor) grow() {
	p.unparkAll()
	old, oldReady, oldMask := p.ring, p.ready, p.mask
	p.newRing(2 * len(old))
	for h := p.head; h != p.tail; h++ {
		p.ring[h&p.mask] = old[h&oldMask]
		for c := range p.ready {
			p.ready[c][h&p.mask] = oldReady[c][h&oldMask]
		}
	}
}

// queueEntry is one dispatch-queue slot: the instruction, which of its
// copies (master or slave) waits in this cluster, and the copy's register
// sources. srcs[:nSrcs] are the local producers whose values the copy
// reads from its cluster's register file (an instruction has at most two
// sources; producers already retired at distribute time are left out, as
// their values are architectural). Keeping them here lets the issue scan
// reject a copy whose operands are not ready without touching the copy.
type queueEntry struct {
	h     handle
	srcs  [2]handle
	nSrcs int8
	slave bool
}

// uopOf returns the copy a queue entry names.
func (d *dynInst) uopOf(e queueEntry) *uop {
	if e.slave {
		return &d.su
	}
	return &d.mu
}

// seqRef names an instruction that may be squashed or retired while the
// reference is held; it is valid only while the slot still carries seq.
type seqRef struct {
	seq int64
	h   handle
}

// lookup returns the referenced instruction, or nil once its slot has been
// reused.
func (p *Processor) lookup(r seqRef) *dynInst {
	if d := p.inst(r.h); d.seq == r.seq {
		return d
	}
	return nil
}

// fetchRing is the refetch queue: instructions squashed by a replay wait
// here, in program order, ahead of the rest of the trace. It is a deque so
// a replay can push victims in front of items an earlier replay queued.
type fetchRing struct {
	items      []fetchItem // power-of-two length; nil until first replay
	head, tail uint32
}

func (q *fetchRing) len() int { return int(q.tail - q.head) }

// pop removes and returns the oldest item; the ring must be non-empty.
func (q *fetchRing) pop() fetchItem {
	it := q.items[q.head&uint32(len(q.items)-1)]
	q.head++
	return it
}

// pushFront inserts it ahead of every queued item. reserve must have made
// room first.
func (q *fetchRing) pushFront(it fetchItem) {
	q.head--
	q.items[q.head&uint32(len(q.items)-1)] = it
}

// reserve makes room for n more items, doubling the storage when needed.
func (q *fetchRing) reserve(n int) {
	need := q.len() + n
	if need <= len(q.items) {
		return
	}
	size := minRingSize
	for size < need {
		size <<= 1
	}
	items := make([]fetchItem, size)
	for i := 0; i < q.len(); i++ {
		items[i] = q.items[(q.head+uint32(i))&uint32(len(q.items)-1)]
	}
	q.tail = uint32(q.len())
	q.head = 0
	q.items = items
}

// storeTable maps a word-aligned address to the youngest in-flight store
// distributed to it, for store→load dependence tracking: an open-addressed,
// linear-probing table with backward-shift deletion. A store removes its
// own entry when it retires or is squashed, so every entry names an
// in-flight store and the table never holds more entries than the ring.
type storeTable struct {
	slots []storeSlot // power-of-two length; nil when memory is unordered
	n     int
}

type storeSlot struct {
	addr uint64
	h    handle
	used bool
}

// home is the preferred slot of addr (Fibonacci hashing of the word index).
func (s *storeTable) home(addr uint64) int {
	return int(((addr >> 3) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(s.slots)-1))
}

// find returns the slot index holding addr, or the empty slot where it
// would go.
func (s *storeTable) find(addr uint64) int {
	mask := len(s.slots) - 1
	i := s.home(addr)
	for s.slots[i].used && s.slots[i].addr != addr {
		i = (i + 1) & mask
	}
	return i
}

// get returns the store recorded for addr.
func (s *storeTable) get(addr uint64) (handle, bool) {
	e := s.slots[s.find(addr)]
	return e.h, e.used
}

// put records h as the youngest store to addr.
func (s *storeTable) put(addr uint64, h handle) {
	i := s.find(addr)
	if !s.slots[i].used {
		if 2*(s.n+1) > len(s.slots) {
			s.rehash()
			i = s.find(addr)
		}
		s.n++
	}
	s.slots[i] = storeSlot{addr: addr, h: h, used: true}
}

// rehash doubles the table.
func (s *storeTable) rehash() {
	old := s.slots
	s.slots = make([]storeSlot, 2*len(old))
	for _, e := range old {
		if e.used {
			s.slots[s.find(e.addr)] = e
		}
	}
}

// remove deletes addr's entry if it still names the store at h.
func (s *storeTable) remove(addr uint64, h handle) {
	i := s.find(addr)
	if !s.slots[i].used || s.slots[i].h != h {
		return
	}
	s.n--
	mask := len(s.slots) - 1
	// Backward-shift deletion: pull later members of the probe run into
	// the hole when the hole lies on their probe path.
	for j := i; ; {
		j = (j + 1) & mask
		if !s.slots[j].used {
			break
		}
		k := s.home(s.slots[j].addr)
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = storeSlot{}
}

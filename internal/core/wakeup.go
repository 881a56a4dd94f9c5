package core

import (
	"cmp"
	"slices"
)

// This file keeps the issue scan off copies that cannot issue. A queue
// entry whose operand comes from a producer that has not issued yet (its
// scoreboard entry is still never) cannot issue until that producer sets
// the entry, so the scan parks it on the producer's wait list instead of
// re-checking it every cycle; setReady wakes the list and the next scan of
// the cluster merges the woken entries back into the queue in age order.
// A woken copy's operand is at the earliest ready the cycle after its
// producer issued, so skipping it until then changes no issue decision,
// and the scan still visits every copy that could issue in age order.
// On queue-bound code, where most of the queue waits on a dependence chain
// (ora), this removes most of the per-cycle work.

// parking is one cluster's parked queue entries. Wait lists are linked
// through consumer slots: a consumer has at most one copy per cluster, so
// its slot indexes its parked entry.
type parking struct {
	head  []int32       // per producer slot: first parked consumer slot, or -1
	entry []parkedEntry // per consumer slot
	woken []queueEntry  // entries whose producer became ready, not yet merged
	n     int           // entries parked or woken
}

type parkedEntry struct {
	e    queueEntry
	next int32
}

// newParking returns empty wait lists for a ring of n slots.
func newParking(n, queueSize int) parking {
	k := parking{
		head:  make([]int32, n),
		entry: make([]parkedEntry, n),
		woken: make([]queueEntry, 0, queueSize),
	}
	for i := range k.head {
		k.head[i] = -1
	}
	return k
}

// park moves cluster c's queue entry e onto the wait list of its unissued
// producer at src.
func (p *Processor) park(c int, e queueEntry, src handle) {
	k := &p.parked[c]
	cs, ps := int32(e.h&p.mask), src&p.mask
	k.entry[cs] = parkedEntry{e: e, next: k.head[ps]}
	k.head[ps] = cs
	k.n++
}

// wake moves every entry parked on the producer at h in cluster c to the
// woken list.
func (p *Processor) wake(h handle, c int) {
	k := &p.parked[c]
	ps := h & p.mask
	for w := k.head[ps]; w >= 0; w = k.entry[w].next {
		k.woken = append(k.woken, k.entry[w].e)
	}
	k.head[ps] = -1
}

// unpark merges cluster c's woken entries back into its queue in age order.
func (p *Processor) unpark(c int) {
	k := &p.parked[c]
	w := k.woken
	if len(w) == 0 {
		return
	}
	age := func(h handle) int32 { return int32(h - p.head) }
	slices.SortFunc(w, func(a, b queueEntry) int { return cmp.Compare(age(a.h), age(b.h)) })
	// Merge from the back; the queue's capacity holds every entry of the
	// cluster, parked ones included.
	n := len(p.queue[c])
	q := p.queue[c][:n+len(w)]
	for i, j, o := n-1, len(w)-1, len(q)-1; j >= 0; o-- {
		if i >= 0 && age(q[i].h) > age(w[j].h) {
			q[o] = q[i]
			i--
		} else {
			q[o] = w[j]
			j--
		}
	}
	p.queue[c] = q
	k.n -= len(w)
	k.woken = w[:0]
}

// unparkAll returns every parked entry to the queues, before a squash or a
// ring resize invalidates the wait lists' slots.
func (p *Processor) unparkAll() {
	for c := 0; c < p.cfg.Clusters; c++ {
		for s, w := range p.parked[c].head {
			if w >= 0 {
				p.wake(handle(s), c)
			}
		}
		p.unpark(c)
	}
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"multicluster/internal/trace"
)

// TestRingLayoutInvisible runs the same streams with the ring forced
// through its rare paths and checks the statistics do not move: a ring too
// small for the window (so it doubles mid-run, and the store table
// rehashes) and positions that start just short of the 2^32 wrap.
func TestRingLayoutInvisible(t *testing.T) {
	variants := []struct {
		name  string
		setup func(*Processor)
	}{
		{"tiny-ring", func(p *Processor) {
			p.newRing(2)
			if p.lastStore.slots != nil {
				p.lastStore.slots = make([]storeSlot, 2)
			}
		}},
		{"wrapping-positions", func(p *Processor) {
			start := handle(math.MaxUint32 - 700)
			p.head, p.tail, p.unissued = start, start, start
		}},
	}
	for _, bc := range benchConfigs() {
		for seed := int64(0); seed < 4; seed++ {
			_, entries := randomStream(rand.New(rand.NewSource(seed)), 3000)
			cfg := bc.cfg
			cfg.MaxCycles = int64(len(entries)) * 200
			p, err := New(cfg, &trace.SliceReader{Entries: entries})
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				p, err := New(cfg, &trace.SliceReader{Entries: entries})
				if err != nil {
					t.Fatal(err)
				}
				v.setup(p)
				got, err := p.Run()
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", bc.name, v.name, seed, err)
				}
				if v.name == "tiny-ring" && len(p.ring) <= 2 {
					t.Errorf("%s seed %d: the tiny ring never grew", bc.name, seed)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s seed %d: stats diverge from the default ring:\n got %+v\nwant %+v", bc.name, v.name, seed, got, want)
				}
			}
		}
	}
}

// TestStoreTable exercises the open-addressed store table directly: puts,
// overwrites, removal that checks the store, backward-shift deletion
// across colliding probe runs, and rehashing.
func TestStoreTable(t *testing.T) {
	// A probe run that wraps past the table's end: three words whose home
	// is the last slot, then the first removed.
	s := storeTable{slots: make([]storeSlot, 8)}
	var run []uint64
	for a := uint64(0); len(run) < 3; a += 8 {
		if s.home(a) == len(s.slots)-1 {
			run = append(run, a)
		}
	}
	for i, a := range run {
		s.put(a, handle(i))
	}
	s.remove(run[0], 0)
	for i, a := range run[1:] {
		if h, ok := s.get(a); !ok || h != handle(i+1) {
			t.Fatalf("after removing the head of a wrapped probe run, addr %#x maps to (%v, %v)", a, h, ok)
		}
	}

	// Random operations over few distinct words.
	for _, words := range []int{3, 7, 24, 64} {
		s := storeTable{slots: make([]storeSlot, 4)}
		want := map[uint64]handle{}
		rng := rand.New(rand.NewSource(int64(words)))
		for i := 0; i < 5000; i++ {
			addr := uint64(rng.Intn(words)) * 8
			if rng.Intn(3) == 0 {
				h, ok := want[addr]
				if rng.Intn(4) == 0 {
					h++ // removing an older store must not delete a newer one's entry
				}
				s.remove(addr, h)
				if ok && h == want[addr] {
					delete(want, addr)
				}
			} else {
				s.put(addr, handle(i))
				want[addr] = handle(i)
			}
			if s.n != len(want) {
				t.Fatalf("%d words, step %d: table holds %d entries, want %d", words, i, s.n, len(want))
			}
			for a, wh := range want {
				if h, ok := s.get(a); !ok || h != wh {
					t.Fatalf("%d words, step %d: addr %#x maps to (%v, %v), want %v", words, i, a, h, ok, wh)
				}
			}
		}
	}
}

// TestRunAllocationsIndependentOfLength pins zero steady-state allocation:
// simulating four times as many instructions may allocate only a small
// constant more (one-time growth of bounded scratch structures), on every
// benchmark machine including the replaying starved one.
func TestRunAllocationsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 5_000
	_, entries := randomStream(rand.New(rand.NewSource(1)), 4*n)
	for _, bc := range benchConfigs() {
		cfg := bc.cfg
		cfg.MaxCycles = int64(len(entries)) * 200
		allocs := func(es []trace.Entry) float64 {
			return testing.AllocsPerRun(2, func() {
				p, err := New(cfg, &trace.SliceReader{Entries: es})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(entries[:n]), allocs(entries)
		if long-short > 8 {
			t.Errorf("%s: %v allocations for %d instructions but %v for %d: the run allocates per instruction",
				bc.name, short, n, long, 4*n)
		}
		t.Logf("%s: %v allocs at %d instrs, %v at %d", bc.name, short, n, long, 4*n)
	}
}

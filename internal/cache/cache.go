// Package cache models the instruction and data caches of §4.1 of the
// paper: 64-Kbyte, two-way set-associative, LRU-replaced caches backed by a
// memory interface with a fixed fetch latency and unlimited bandwidth. The
// data cache uses an inverted MSHR, imposing no restriction on the number
// of in-flight misses; a reference to a line whose fill is still in flight
// merges with the outstanding miss and waits only for the remaining fill
// time.
package cache

import "fmt"

// Config sizes one cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size int `json:"size"`
	// LineSize is the line (block) size in bytes; must be a power of two.
	LineSize int `json:"line_size"`
	// Assoc is the set associativity.
	Assoc int `json:"assoc"`
	// MissLatency is the fill latency in cycles (the paper's memory
	// interface has a 16-cycle fetch latency).
	MissLatency int `json:"miss_latency"`
}

// Default64K returns the paper's cache configuration: 64 KB, two-way set
// associative, 16-cycle miss latency. The paper does not state a line size;
// 32 bytes matches the 21064-generation caches the study targeted.
func Default64K() Config {
	return Config{Size: 64 * 1024, LineSize: 32, Assoc: 2, MissLatency: 16}
}

// Stats counts cache traffic.
type Stats struct {
	Accesses int64 `json:"accesses"`
	Misses   int64 `json:"misses"` // primary misses that start a fill
	Merges   int64 `json:"merges"` // accesses that merged with an in-flight fill
}

// MissRate returns misses (primary + merged) per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses+s.Merges) / float64(s.Accesses)
}

type line struct {
	tag     uint64
	valid   bool
	lastUse int64 // for LRU
	readyAt int64 // cycle the fill completes (inverted-MSHR merging)
}

// Cache is a set-associative cache with timestamp LRU and in-place miss
// tracking.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint64
	stats    Stats
	tick     int64 // monotonically increasing access counter for LRU
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.Size <= 0 || cfg.LineSize <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", cfg.LineSize)
	}
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets (size %d, line %d, assoc %d) not a power of two", nSets, cfg.Size, cfg.LineSize, cfg.Assoc)
	}
	// All sets share one backing array: two allocations per cache instead
	// of one per set.
	c := &Cache{cfg: cfg, sets: make([][]line, nSets)}
	lines := make([]line, nSets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.setShift++
	}
	c.setMask = uint64(nSets - 1)
	return c, nil
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Access references addr at time now and returns the extra latency beyond
// the hit path: 0 on a hit, MissLatency on a primary miss, and the
// remaining fill time when the access merges with an in-flight fill.
func (c *Cache) Access(addr uint64, now int64) (extraLatency int) {
	c.stats.Accesses++
	c.tick++
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.setShift
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lastUse = c.tick
			if l.readyAt > now {
				c.stats.Merges++
				return int(l.readyAt - now)
			}
			return 0
		}
	}
	// Primary miss: fill in place, evicting the LRU way.
	victim := &set[0]
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	c.stats.Misses++
	victim.valid = true
	victim.tag = tag
	victim.lastUse = c.tick
	victim.readyAt = now + int64(c.cfg.MissLatency)
	return c.cfg.MissLatency
}

// Contains reports whether addr currently hits (fill complete by now),
// without touching LRU state or statistics.
func (c *Cache) Contains(addr uint64, now int64) bool {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.setShift
	for i := range set {
		if set[i].valid && set[i].tag == tag && set[i].readyAt <= now {
			return true
		}
	}
	return false
}

// LineSize returns the configured line size.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.stats = Stats{}
	c.tick = 0
}

package partition

import (
	"hash/maphash"
	"math"
	"slices"

	"zeppelin/internal/seq"
)

// planLRU is an exact-key LRU of solved plans, the one cache behind both
// the per-planner tier (Incremental) and the process-wide tier
// (SharedCache). The 64-bit key only prunes the scan: every hit
// re-compares the full inputs — node split, capacity, speed view and
// batch — so a key collision can never serve another input's plan. A
// 2×8 and a 4×4 cluster share a world of 16 but bucket sequences
// differently, which is why the node split is compared and not just the
// world size. Not safe for concurrent use.
type planLRU struct {
	cap     int
	seed    maphash.Seed
	keyBuf  []byte      // hash scratch
	entries []planEntry // front = most recently used
}

// planEntry is one solved plan plus the exact inputs that produced it.
type planEntry struct {
	key      uint64
	nodes    int
	perNode  int
	capacity int
	speeds   []float64
	batch    []seq.Sequence
	res      *Result
}

func newPlanLRU(cap int) planLRU {
	return planLRU{cap: cap, seed: maphash.MakeSeed()}
}

// hash folds the node split, capacity, speed view and batch into a key
// through one flat buffer hash (per-field Write calls are measurable at
// thousand-sequence batch sizes).
func (c *planLRU) hash(cfg Config, batch []seq.Sequence) uint64 {
	need := 8 * (4 + len(cfg.Speeds) + 1 + 2*len(batch))
	if cap(c.keyBuf) < need {
		c.keyBuf = make([]byte, need)
	}
	b := c.keyBuf[:0]
	put := func(u uint64) {
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	put(uint64(cfg.Cluster.Nodes))
	put(uint64(cfg.Cluster.GPUsPerNode))
	put(uint64(cfg.CapacityTokens))
	put(uint64(len(cfg.Speeds)))
	for _, s := range cfg.Speeds {
		put(math.Float64bits(s))
	}
	put(uint64(len(batch)))
	for _, s := range batch {
		put(uint64(s.ID))
		put(uint64(s.Len))
	}
	c.keyBuf = b
	return maphash.Bytes(c.seed, b)
}

// get returns the plan stored for the exact inputs, promoting its entry
// to the front, or nil on a miss.
func (c *planLRU) get(key uint64, cfg Config, batch []seq.Sequence) *Result {
	for i := range c.entries {
		e := &c.entries[i]
		if e.key != key || e.nodes != cfg.Cluster.Nodes || e.perNode != cfg.Cluster.GPUsPerNode ||
			e.capacity != cfg.CapacityTokens {
			continue
		}
		if !sameSpeeds(e.speeds, cfg.Speeds) || !slices.Equal(e.batch, batch) {
			continue
		}
		hit := *e
		copy(c.entries[1:i+1], c.entries[:i])
		c.entries[0] = hit
		return hit.res
	}
	return nil
}

// put fronts a plan for inputs get just missed, dropping the least
// recently used entry when the cache is full. It reports whether an
// entry was evicted.
func (c *planLRU) put(key uint64, cfg Config, batch []seq.Sequence, res *Result) (evicted bool) {
	if len(c.entries) < c.cap {
		c.entries = append(c.entries, planEntry{})
	} else {
		evicted = true
	}
	copy(c.entries[1:], c.entries[:len(c.entries)-1])
	c.entries[0] = planEntry{
		key:      key,
		nodes:    cfg.Cluster.Nodes,
		perNode:  cfg.Cluster.GPUsPerNode,
		capacity: cfg.CapacityTokens,
		speeds:   slices.Clone(cfg.Speeds),
		batch:    slices.Clone(batch),
		res:      res,
	}
	return evicted
}

// sameSpeeds compares two speed vectors (nil == nil, not nil == uniform).
func sameSpeeds(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

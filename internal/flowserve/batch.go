package flowserve

import (
	"runtime"

	"halo/internal/hashfn"
)

// probeChunk is how many keys LookupMany carries through its stages at a
// time. The lines a chunk warms — key bytes and bucket, about three per key
// — must still be in L1/L2 when the probe stage reads them, and the chunk
// must be wide enough for its independent misses to fill the core's
// outstanding-miss slots. DESIGN.md §8 records the measurement that picked
// it.
const probeChunk = 64

// noShard marks a wrong-length key in Batch.shard: it belongs to no shard.
const noShard = ^uint32(0)

// Batch is reusable scratch for LookupMany. Like HALO's non-blocking lookup
// window, a batch belongs to one issuing context: a Batch is NOT safe for
// concurrent use, but any number of goroutines may run their own batches
// against the same table concurrently.
type Batch struct {
	t *Table

	kw    [probeChunk][maxKeyWords]uint64
	h     [probeChunk]uint64
	sig   [probeChunk]uint16
	shard [probeChunk]uint32

	order  [probeChunk]uint32 // chunk key indices grouped by shard
	groups [probeChunk]uint32 // shards present in the chunk, first-seen order
	count  []uint32           // per shard: key count, then group offset

	// sink receives the advisory stages' loads so the compiler keeps them.
	sink uint64
}

// NewBatch returns an empty batch for the table.
func (t *Table) NewBatch() *Batch {
	return &Batch{t: t, count: make([]uint32, len(t.shards))}
}

// LookupMany looks up all keys, writing results[i] for each, and returns
// the number of hits. It is the software analogue of issuing LOOKUP_NB for
// the whole batch and polling completions with SNAPSHOT_READ: like HALO's
// slice accelerators walking buckets in parallel, it overlaps the keys'
// cache misses instead of paying each key's dependent misses (key bytes,
// then bucket, then key-value slot) one key at a time. Keys run through
// three stages, a chunk of probeChunk keys at a time:
//
//	(a) touch every key's bytes;
//	(b) hash, route and sign every key, then touch its primary bucket in
//	    the shard's current region (and in the old one mid-resize);
//	(c) group the keys by shard and probe each group under one seqlock
//	    window, amortising the read protocol over the group. With the key
//	    and bucket lines warm, the probes' key-value slot misses overlap
//	    across keys.
//
// Stages (a) and (b) are advisory: plain loads of the caller's key bytes
// and atomic loads of bucket words into a sink. They decide no result, bump
// no counter and take no lock. Every result comes from (c), which runs the
// same seqlock probe as Lookup (DESIGN.md §8), so the loads only warm the
// lines (c) is about to read.
//
// Keys of the wrong length are misses counted in the table-level badlen
// counter, as in Lookup. results must be at least len(keys) long.
func (b *Batch) LookupMany(keys [][]byte, results []Result) int {
	_ = results[:len(keys)]
	hits := 0
	for len(keys) > 0 {
		n := min(len(keys), probeChunk)
		hits += b.lookupChunk(keys[:n], results[:n])
		keys, results = keys[n:], results[n:]
	}
	return hits
}

// lookupChunk runs the three stages over at most probeChunk keys.
func (b *Batch) lookupChunk(keys [][]byte, results []Result) int {
	t := b.t
	nshards := uint64(len(t.shards))
	sink := b.sink

	// (a) Key bytes: the first and last byte, so a key straddling a cache
	// line brings in both lines.
	for _, key := range keys {
		if len(key) == t.keyLen {
			sink += uint64(key[0]) + uint64(key[len(key)-1])
		}
	}

	// (b) Hash, signature and shard per key, then touch the primary
	// buckets. The touches get a loop of their own: interleaved with the
	// hashing, each iteration is long enough that the reorder window holds
	// only a couple of outstanding bucket misses.
	badLen := uint64(0)
	for i, key := range keys {
		if len(key) != t.keyLen {
			b.shard[i] = noShard
			results[i] = Result{}
			badLen++
			continue
		}
		keyToWords(key, &b.kw[i])
		h := hashfn.Hash(hashfn.SeedPrimary, key)
		b.h[i], b.sig[i] = h, hashfn.Signature(h)
		b.shard[i] = uint32(hashfn.ShardIndex(h, nshards))
	}
	if badLen > 0 {
		t.badLen.Add(badLen)
	}
	for i := range keys {
		si := b.shard[i]
		if si == noShard {
			continue
		}
		h := b.h[i]
		rp := t.shards[si].regions.Load()
		sink += rp.cur.primary(h).Load()
		if rp.old != nil {
			sink += rp.old.primary(h).Load()
		}
	}
	b.sink = sink

	// (c) Group by shard — a counting sort over the shards present, in
	// first-seen order, so its cost is per key rather than per shard —
	// then probe each group under its seqlock window.
	const seen = 1 << 31
	for _, si := range b.shard[:len(keys)] {
		if si != noShard {
			b.count[si] = 0
		}
	}
	for _, si := range b.shard[:len(keys)] {
		if si != noShard {
			b.count[si]++
		}
	}
	groups := b.groups[:0]
	off := uint32(0)
	for _, si := range b.shard[:len(keys)] {
		if si != noShard && b.count[si]&seen == 0 {
			c := b.count[si]
			b.count[si] = off | seen
			off += c
			groups = append(groups, si)
		}
	}
	for i, si := range b.shard[:len(keys)] {
		if si != noShard {
			b.order[b.count[si]&^seen] = uint32(i)
			b.count[si]++
		}
	}
	// b.count[si]&^seen is now the end offset of shard si's group.
	hits := 0
	start := uint32(0)
	for _, si := range groups {
		end := b.count[si] &^ seen
		hits += b.lookupGroup(t.shards[si], b.order[start:end], results)
		start = end
	}
	return hits
}

// lookupGroup probes one shard's group of keys under a shared seqlock
// window. If a writer invalidates the window, the whole group re-probes;
// after maxOptimistic attempts it runs once under the writer lock. The
// shard's region set is loaded once per attempt, so every key in the group
// probes one consistent old/current pair.
func (b *Batch) lookupGroup(sh *shard, group []uint32, results []Result) int {
	nw := b.t.keyWords
	sh.c.batches.Add(1)
	sh.c.batchKeys.Add(uint64(len(group)))
	sh.c.lookups.Add(uint64(len(group)))

	hits := 0
	probeAll := func(rp *regionPair) {
		hits = 0
		for _, i := range group {
			v, ok := sh.probe(rp, &b.kw[i], nw, b.h[i], b.sig[i])
			results[i] = Result{Value: v, OK: ok}
			if ok {
				hits++
			}
		}
	}
	for attempt := 0; attempt < maxOptimistic; attempt++ {
		s1 := sh.seq.Load()
		if s1&1 != 0 {
			sh.c.retries.Add(1)
			runtime.Gosched()
			continue
		}
		probeAll(sh.regions.Load())
		if sh.seq.Load() == s1 {
			sh.c.hits.Add(uint64(hits))
			return hits
		}
		sh.c.retries.Add(1)
	}
	sh.c.fallbacks.Add(1)
	sh.mu.Lock()
	probeAll(sh.regions.Load())
	sh.mu.Unlock()
	sh.c.hits.Add(uint64(hits))
	return hits
}

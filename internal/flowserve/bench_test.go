package flowserve

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// Benchmarks pinning the cost of the two batched-lookup entry points: a
// caller-pinned Batch (flowload's hot loop via the Reader interface used to
// pin one per worker) versus Table.LookupMany's pooled scratch. The pool
// Get/Put must stay in the noise relative to a 16-key batch probe.
func benchTable(b *testing.B) (*Table, [][]byte) {
	b.Helper()
	const n = 1 << 15
	tbl, err := New(Config{Shards: 4, Entries: n + n/8, KeyLen: 16})
	if err != nil {
		b.Fatal(err)
	}
	arena := make([]byte, n*16)
	keys := make([][]byte, n)
	for i := range keys {
		k := arena[i*16 : (i+1)*16]
		binary.LittleEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15+1)
		binary.LittleEndian.PutUint64(k[8:], uint64(i))
		keys[i] = k
		if err := tbl.Insert(k, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, keys
}

func BenchmarkLookupManyPinnedBatch(b *testing.B) {
	tbl, keys := benchTable(b)
	batch := tbl.NewBatch()
	bkeys := make([][]byte, 16)
	results := make([]Result, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bkeys {
			bkeys[j] = keys[(i*16+j*7)%len(keys)]
		}
		if batch.LookupMany(bkeys, results) != 16 {
			b.Fatal("miss on a resident key")
		}
	}
}

func BenchmarkLookupManyPooled(b *testing.B) {
	tbl, keys := benchTable(b)
	bkeys := make([][]byte, 16)
	results := make([]Result, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bkeys {
			bkeys[j] = keys[(i*16+j*7)%len(keys)]
		}
		if tbl.LookupMany(bkeys, results) != 16 {
			b.Fatal("miss on a resident key")
		}
	}
}

// BenchmarkLookupManyPastLLC drives 16-key batches over a table too big for
// the private caches: 1M random 20-B keys (the packed-header key size) in a
// 4-shard table, keys packed back to back in one arena, batches drawn from a
// pre-drawn uniform trace. Every key costs cold misses on its key bytes,
// its bucket and its key-value slot — the regime the staged probe targets,
// which benchTable's 32k keys (resident in L2) cannot show.
func BenchmarkLookupManyPastLLC(b *testing.B) {
	const (
		n      = 1 << 20
		keyLen = 20
		batch  = 16
		trace  = 1 << 22
	)
	tbl, err := New(Config{Shards: 4, Entries: n + n/8 + 1024, KeyLen: keyLen})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	arena := make([]byte, n*keyLen)
	keys := make([][]byte, n)
	for i := range keys {
		k := arena[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
		for {
			binary.LittleEndian.PutUint64(k, rng.Uint64())
			binary.LittleEndian.PutUint64(k[8:], rng.Uint64())
			binary.LittleEndian.PutUint32(k[16:], rng.Uint32())
			if err := tbl.Insert(k, uint64(i)+1); err == nil {
				break
			} else if err != ErrKeyExists {
				b.Fatal(err)
			}
		}
		keys[i] = k
	}
	idx := make([]uint32, trace)
	for i := range idx {
		idx[i] = uint32(rng.IntN(n))
	}
	bkeys := make([][]byte, batch)
	results := make([]Result, batch)
	tb := tbl.NewBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batch) & (trace - 1)
		for j := range bkeys {
			bkeys[j] = keys[idx[base+j]]
		}
		if tb.LookupMany(bkeys, results) != batch {
			b.Fatal("miss on a resident key")
		}
	}
}

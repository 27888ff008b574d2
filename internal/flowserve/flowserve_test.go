package flowserve

import (
	"encoding/binary"
	"testing"

	"halo/internal/stats"
)

// key20 builds a 20-byte key (the packet header-key width) from a number.
func key20(i uint64) []byte {
	k := make([]byte, 20)
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i*0x9e3779b97f4a7c15)
	return k
}

func mustNew(t testing.TB, cfg Config) *Table {
	t.Helper()
	tbl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Shards: 1, Entries: 100, KeyLen: 0},
		{Shards: 1, Entries: 100, KeyLen: 65},
		{Shards: 0, Entries: 100, KeyLen: 16},
		{Shards: 3, Entries: 100, KeyLen: 16},
		{Shards: 8192, Entries: 100, KeyLen: 16},
		{Shards: 1, Entries: 0, KeyLen: 16},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestBasicOps(t *testing.T) {
	for _, shards := range []int{1, 4} {
		tbl := mustNew(t, Config{Shards: shards, Entries: 4096, KeyLen: 20})
		const n = 2000
		for i := uint64(0); i < n; i++ {
			if err := tbl.Insert(key20(i), i*3+1); err != nil {
				t.Fatalf("shards=%d Insert(%d): %v", shards, i, err)
			}
		}
		if got := tbl.Size(); got != n {
			t.Fatalf("shards=%d Size = %d, want %d", shards, got, n)
		}
		for i := uint64(0); i < n; i++ {
			v, ok := tbl.Lookup(key20(i))
			if !ok || v != i*3+1 {
				t.Fatalf("shards=%d Lookup(%d) = (%d,%v), want (%d,true)", shards, i, v, ok, i*3+1)
			}
		}
		if _, ok := tbl.Lookup(key20(n + 5)); ok {
			t.Fatalf("shards=%d found an absent key", shards)
		}
		if err := tbl.Insert(key20(3), 99); err != ErrKeyExists {
			t.Fatalf("shards=%d duplicate insert: %v, want ErrKeyExists", shards, err)
		}
		if !tbl.Update(key20(3), 99) {
			t.Fatalf("shards=%d Update of a present key failed", shards)
		}
		if v, ok := tbl.Lookup(key20(3)); !ok || v != 99 {
			t.Fatalf("shards=%d value after Update = (%d,%v), want (99,true)", shards, v, ok)
		}
		if tbl.Update(key20(n+7), 1) {
			t.Fatalf("shards=%d Update of an absent key succeeded", shards)
		}
		if !tbl.Delete(key20(3)) {
			t.Fatalf("shards=%d Delete of a present key failed", shards)
		}
		if tbl.Delete(key20(3)) {
			t.Fatalf("shards=%d Delete of an absent key succeeded", shards)
		}
		if _, ok := tbl.Lookup(key20(3)); ok {
			t.Fatalf("shards=%d deleted key still present", shards)
		}
		if got := tbl.Size(); got != n-1 {
			t.Fatalf("shards=%d Size after delete = %d, want %d", shards, got, n-1)
		}
	}
}

func TestKeyLenMismatch(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 128, KeyLen: 20})
	short := make([]byte, 5)
	if _, ok := tbl.Lookup(short); ok {
		t.Fatal("Lookup of a mismatched-length key hit")
	}
	if err := tbl.Insert(short, 1); err != ErrKeyLen {
		t.Fatalf("Insert(short key) = %v, want ErrKeyLen", err)
	}
	if tbl.Update(short, 1) || tbl.Delete(short) {
		t.Fatal("Update/Delete of a mismatched-length key succeeded")
	}
	// Wrong-length keys hash to no shard, so they must land in the
	// table-level badlen counter — never in a shard's lookup count, which
	// would skew that shard's hit ratio (pre-PR they were charged to
	// shard 0).
	s := tbl.Stats()
	if s.BadLenLookups != 1 {
		t.Fatalf("mismatched-length lookup accounting = %+v, want BadLenLookups 1", s)
	}
	if s.Lookups != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("mismatched-length lookup leaked into shard counters: %+v", s)
	}
}

// TestFillForcesDisplacement fills a single-shard table close to capacity so
// insertion must run cuckoo displacement chains, then verifies every key.
func TestFillForcesDisplacement(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 1024, KeyLen: 20})
	inserted := make(map[uint64]uint64)
	for i := uint64(0); i < 1024; i++ {
		err := tbl.Insert(key20(i), i+100)
		if err == ErrTableFull {
			break
		}
		if err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
		inserted[i] = i + 100
	}
	if len(inserted) < 900 {
		t.Fatalf("only %d of 1024 slots filled before ErrTableFull", len(inserted))
	}
	if tbl.Stats().Displacements == 0 {
		t.Fatal("filling to ~100%% load never displaced an entry")
	}
	for i, want := range inserted {
		if v, ok := tbl.Lookup(key20(i)); !ok || v != want {
			t.Fatalf("after displacement, Lookup(%d) = (%d,%v), want (%d,true)", i, v, ok, want)
		}
	}
}

// TestLookupManyMatchesLookup pins the staged batch probe to the single-key
// path: every result and the hit count must equal per-key Lookup, for batch
// sizes around the chunk boundary, with wrong-length, duplicate and absent
// keys, on a steady table and mid-resize. The counter deltas must match the
// keys issued — the advisory stages may count nothing.
func TestLookupManyMatchesLookup(t *testing.T) {
	const n = 4000
	sizes := []int{0, 1, probeChunk - 1, probeChunk, probeChunk + 1, 3*probeChunk + 5}

	steady := mustNew(t, Config{Shards: 8, Entries: 8192, KeyLen: 20})
	for i := uint64(0); i < n; i++ {
		if err := steady.Insert(key20(i), i^0xabcd); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("steady", func(t *testing.T) { checkBatchesAgainstLookup(t, steady, n, sizes) })

	// Mid-migration: a partial ResizeStep leaves some keys in the old
	// region and some in the new one.
	moving := mustNew(t, Config{Shards: 4, Entries: 4400, KeyLen: 20})
	for i := uint64(0); i < n; i++ {
		if err := moving.Insert(key20(i), i^0xabcd); err != nil {
			t.Fatal(err)
		}
	}
	if err := moving.Grow(2 * moving.Capacity()); err != nil {
		t.Fatal(err)
	}
	moving.ResizeStep(40)
	if s := moving.Stats(); !moving.Resizing() || s.MigratedKeys == 0 || s.MigratedKeys >= n {
		t.Fatalf("resize not mid-flight: resizing=%v migrated %d of %d keys", moving.Resizing(), s.MigratedKeys, n)
	}
	t.Run("resizing", func(t *testing.T) { checkBatchesAgainstLookup(t, moving, n, sizes) })
}

// checkBatchesAgainstLookup issues batches of each size through a Batch,
// the pooled Table.LookupMany and a PinnedReader, and compares results,
// hits and counter deltas with per-key Lookup. Keys 0..resident-1 are
// present with value i^0xabcd. Every size past 1 must mix hits with
// valid-length misses; a final sweep then looks up every resident key and
// 200 absent ones in batches of 93, a size that is not a chunk multiple.
func checkBatchesAgainstLookup(t *testing.T, tbl *Table, resident uint64, sizes []int) {
	b := tbl.NewBatch()
	pr := tbl.NewPinnedReader()
	next := uint64(0)
	for _, size := range sizes {
		keys := make([][]byte, size)
		for j := range keys {
			switch {
			case j%7 == 3:
				keys[j] = make([]byte, j%22) // wrong length, including empty
			case j%5 == 1:
				keys[j] = keys[j/2] // duplicate (possibly of a wrong-length key)
			case next%2 == 1:
				keys[j] = key20(resident + next) // absent
				next++
			default:
				keys[j] = key20(next * 2 % resident) // present
				next++
			}
		}
		hits, misses := checkBatch(t, tbl, b, pr, keys)
		if size > 1 && (hits == 0 || misses == 0) {
			t.Fatalf("size %d: %d hits and %d valid-length misses, want both", size, hits, misses)
		}
	}
	const sweep = 93
	keys := make([][]byte, sweep)
	for lo := uint64(0); lo < resident+200; lo += sweep {
		for j := range keys {
			keys[j] = key20(lo + uint64(j)) // present below resident, absent beyond
		}
		checkBatch(t, tbl, b, pr, keys)
	}
}

// checkBatch runs one batch through all three batch paths, fails the test
// on any disagreement with Lookup or the counters, and returns the hits
// and the valid-length misses.
func checkBatch(t *testing.T, tbl *Table, b *Batch, pr *PinnedReader, keys [][]byte) (hits, misses int) {
	t.Helper()
	size, valid := len(keys), 0
	for _, key := range keys {
		if len(key) == 20 {
			valid++
		}
	}
	for _, run := range []struct {
		name string
		fn   func([][]byte, []Result) int
	}{{"Batch", b.LookupMany}, {"Table", tbl.LookupMany}, {"PinnedReader", pr.LookupMany}} {
		results := make([]Result, size)
		for j := range results {
			results[j] = Result{Value: 99, OK: true} // must be overwritten
		}
		before := tbl.Stats()
		got := run.fn(keys, results)
		after := tbl.Stats()
		if d := after.Lookups - before.Lookups; d != uint64(valid) {
			t.Fatalf("%s size %d: Δlookups = %d, want %d valid keys", run.name, size, d, valid)
		}
		if d := after.Hits - before.Hits; d != uint64(got) {
			t.Fatalf("%s size %d: Δhits = %d, returned %d", run.name, size, d, got)
		}
		if d := after.BadLenLookups - before.BadLenLookups; d != uint64(size-valid) {
			t.Fatalf("%s size %d: Δbadlen = %d, want %d", run.name, size, d, size-valid)
		}
		wantHits := 0
		for j, key := range keys {
			wv, wok := tbl.Lookup(key)
			if results[j] != (Result{Value: wv, OK: wok}) {
				t.Fatalf("%s size %d: results[%d] = %+v, Lookup says (%d,%v)", run.name, size, j, results[j], wv, wok)
			}
			if wok {
				if wv != binary.LittleEndian.Uint64(key)^0xabcd {
					t.Fatalf("%s size %d: key %d has value %d", run.name, size, j, wv)
				}
				wantHits++
			}
		}
		if got != wantHits {
			t.Fatalf("%s size %d: %d hits, want %d", run.name, size, got, wantHits)
		}
		hits, misses = got, valid-got
	}
	return hits, misses
}

// TestLookupManySteadyStateAllocs is the batch path's zero-allocation gate:
// after warm-up neither a pinned Batch nor the pooled Table.LookupMany may
// allocate, for a single-chunk batch or one spanning several chunks.
func TestLookupManySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization operations")
	}
	tbl := mustNew(t, Config{Shards: 4, Entries: 8192, KeyLen: 20})
	keys := make([][]byte, 3*probeChunk+5)
	for i := range keys {
		keys[i] = key20(uint64(i))
		if err := tbl.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]Result, len(keys))
	b := tbl.NewBatch()
	for _, size := range []int{16, len(keys)} {
		batch, res := keys[:size], results[:size]
		for name, fn := range map[string]func([][]byte, []Result) int{"Batch": b.LookupMany, "Table": tbl.LookupMany} {
			fn(batch, res) // warm-up: pool and scratch
			allocs := testing.AllocsPerRun(500, func() {
				if fn(batch, res) != size {
					t.Fatal("miss on a resident key")
				}
			})
			if allocs != 0 {
				t.Fatalf("%s.LookupMany(%d keys) allocates %.1f times per call, want 0", name, size, allocs)
			}
		}
	}
}

func TestLookupManyMixedKeyLengths(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 4, Entries: 512, KeyLen: 20})
	if err := tbl.Insert(key20(1), 11); err != nil {
		t.Fatal(err)
	}
	b := tbl.NewBatch()
	keys := [][]byte{key20(1), make([]byte, 3), key20(2), nil}
	results := make([]Result, len(keys))
	if hits := b.LookupMany(keys, results); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if !results[0].OK || results[0].Value != 11 {
		t.Fatalf("present key = %+v, want (11,true)", results[0])
	}
	for _, j := range []int{1, 2, 3} {
		if results[j] != (Result{}) {
			t.Fatalf("key %d = %+v, want a miss", j, results[j])
		}
	}
	if s := tbl.Stats(); s.Lookups != 2 || s.BadLenLookups != 2 {
		t.Fatalf("batch accounting = %d lookups + %d badlen, want 2 + 2 (mismatched lengths are table-level)",
			s.Lookups, s.BadLenLookups)
	}
}

func TestLookupManyEmpty(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 128, KeyLen: 20})
	b := tbl.NewBatch()
	if hits := b.LookupMany(nil, nil); hits != 0 {
		t.Fatalf("empty batch returned %d hits", hits)
	}
	if hits := tbl.LookupMany(nil, nil); hits != 0 {
		t.Fatalf("empty pooled batch returned %d hits", hits)
	}
}

func TestShardSpread(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 8, Entries: 16384, KeyLen: 20})
	const n = 8000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for si, sh := range tbl.shards {
		got := sh.size.Load()
		if got < n/8/2 || got > n/8*2 {
			t.Fatalf("shard %d holds %d of %d keys, want ~%d", si, got, n, n/8)
		}
	}
}

func TestCollectInto(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 4, Entries: 1024, KeyLen: 20})
	for i := uint64(0); i < 100; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 150; i++ {
		tbl.Lookup(key20(i))
	}
	tbl.Delete(key20(0))
	snap := stats.NewSnapshot()
	tbl.CollectInto(snap)
	checks := map[string]uint64{
		"flowserve.shards":  4,
		"flowserve.size":    99,
		"flowserve.lookups": 150,
		"flowserve.hits":    100,
		"flowserve.misses":  50,
		"flowserve.inserts": 100,
		"flowserve.deletes": 1,
	}
	for name, want := range checks {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// The full counter family is present (stable schema, zeros included).
	for _, name := range []string{
		"flowserve.lookup.retries", "flowserve.lookup.lock_fallbacks",
		"flowserve.lookup.badlen", "flowserve.capacity",
		"flowserve.insert.exists", "flowserve.insert.full",
		"flowserve.updates", "flowserve.displacements",
		"flowserve.batch.calls", "flowserve.batch.keys",
		"flowserve.grows", "flowserve.resize.steps",
		"flowserve.resize.migrated_buckets", "flowserve.resize.migrated_keys",
		"flowserve.resize.stalls", "flowserve.resize.active",
		"flowserve.resize.pause_p50_ns", "flowserve.resize.pause_p99_ns",
		"flowserve.resize.pause_max_ns",
	} {
		if _, present := snap.Counters[name]; !present {
			t.Fatalf("counter %s missing from snapshot", name)
		}
	}
}

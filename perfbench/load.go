package main

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"halo/internal/flowserve"
	"halo/internal/packet"
	"halo/internal/trafficgen"
)

const (
	batchKeys  = 16      // keys per LookupMany
	churnEvery = 64      // lookups per worker between churn Delete+Insert pairs
	loadGoros  = 2       // load-generating goroutines per workload
	traceLen   = 1 << 20 // lookups per worker trace; the loop cycles through it
	probeEvery = 32      // traced runs re-issue every probeEvery-th batch on the table
)

// population is a flow population as the load generator sees it: the
// packed header keys, back to back in one arena, and the churn stamps that
// tell a churned-out key from a lost one. gen[i] is odd while flow i is
// inside a churn window (deleted, not yet re-inserted); churnEnd[i] is when
// its last window closed on the run clock. Each flow has exactly one
// churner (flows are partitioned across workers), so a window is never
// shared.
type population struct {
	n        int
	arena    []byte
	gen      []atomic.Uint32
	churnEnd []atomic.Int64
}

func newPopulation(w *trafficgen.Workload) *population {
	n := len(w.Flows)
	p := &population{
		n:        n,
		arena:    make([]byte, n*packet.HeaderKeyLen),
		gen:      make([]atomic.Uint32, n),
		churnEnd: make([]atomic.Int64, n),
	}
	for i, f := range w.Flows {
		f.PutHeaderKey(p.key(int32(i)))
	}
	return p
}

// key returns flow i's key. It is sliced out of the arena, so the load loop
// reads no per-key header: its only memory traffic per key is the trace.
func (p *population) key(i int32) []byte {
	off := int(i) * packet.HeaderKeyLen
	return p.arena[off : off+packet.HeaderKeyLen : off+packet.HeaderKeyLen]
}

// valueOf is the value installed for flow i.
func valueOf(i int32) uint64 { return uint64(i) + 1 }

// excused reports whether a miss of flow i by a lookup sent at t0 is
// explained by churn: the flow's window is open now, or it closed at or
// after t0. Otherwise the flow was installed for the whole lookup, and the
// miss is a loss.
func (p *population) excused(i int32, t0 int64) bool {
	return p.gen[i].Load()&1 == 1 || p.churnEnd[i].Load() >= t0
}

// workerTrace is one worker's pre-drawn flow indexes: the lookups it
// issues, and the flows it churns (all from its own partition).
type workerTrace struct {
	lookups []int32
	churn   []int32
}

// drawTraces draws every worker's trace from trafficgen streams seeded by
// the run seed, before any clock starts, so the load loop never pays for a
// popularity draw.
func drawTraces(w *trafficgen.Workload, seed uint64) []workerTrace {
	out := make([]workerTrace, loadGoros)
	for wi := range out {
		s := w.NewStream(seed ^ uint64(wi+1)*0x9e3779b97f4a7c15)
		look := make([]int32, traceLen)
		for i := range look {
			look[i] = int32(s.NextFlow())
		}
		cs := w.NewStream(seed ^ uint64(wi+1)*0xc2b2ae3d27d4eb4f)
		churn := make([]int32, 0, traceLen/churnEvery)
		for len(churn) < cap(churn) {
			if fi := cs.NextFlow(); fi%loadGoros == wi {
				churn = append(churn, int32(fi))
			}
		}
		out[wi] = workerTrace{lookups: look, churn: churn}
	}
	return out
}

// target is what the load loop drives. probe, when set, returns a
// per-worker function that re-issues a batch directly on the serving
// table(s); it is nil when the Reader is the table itself.
type target struct {
	rd    flowserve.Reader
	wr    flowserve.Writer
	probe func() func(keys [][]byte, res []flowserve.Result)
}

// loadStats is what one worker (or, merged, one phase) measured.
type loadStats struct {
	batches     uint64
	lookups     uint64
	failedLooks uint64 // wrong values and unexcused misses
	failedOps   uint64 // churn Delete/Insert that did not succeed
	churnMisses uint64 // misses excused by a churn window
	churns      uint64
	probeKeys   uint64 // keys re-issued directly on the table(s)
	lastEnd     int64
	lat         *hist // per-LookupMany latency
	wire        *hist // traced: LookupMany minus the direct probe
}

func newLoadStats() *loadStats {
	return &loadStats{lat: new(hist), wire: new(hist)}
}

func (s *loadStats) merge(o *loadStats) {
	s.batches += o.batches
	s.lookups += o.lookups
	s.failedLooks += o.failedLooks
	s.failedOps += o.failedOps
	s.churnMisses += o.churnMisses
	s.churns += o.churns
	s.probeKeys += o.probeKeys
	s.lastEnd = max(s.lastEnd, o.lastEnd)
	s.lat.merge(o.lat)
	s.wire.merge(o.wire)
}

// attempted counts every operation the loop issued: lookups plus churn
// writes (two per churn).
func (s *loadStats) attempted() uint64 { return s.lookups + 2*s.churns }

func (s *loadStats) failed() uint64 { return s.failedLooks + s.failedOps }

// loadWorker is one load goroutine's state; everything it touches per
// batch is allocated before the clock starts.
type loadWorker struct {
	id    int
	pop   *population
	tgt   target
	trace workerTrace
	pos   int
	cpos  int
	n     uint64 // batches issued so far; with id, names the batch in spans
	st    *loadStats
	spans *spanBuf // nil when untraced
	probe func(keys [][]byte, res []flowserve.Result)
}

func newLoadWorker(id int, pop *population, tgt target, tr workerTrace, spans *spanBuf) *loadWorker {
	w := &loadWorker{id: id, pop: pop, tgt: tgt, trace: tr, st: newLoadStats(), spans: spans}
	if spans != nil && tgt.probe != nil {
		w.probe = tgt.probe()
	}
	return w
}

// run issues batches in a closed loop until endNs: each batch is sent when
// the previous one, its verification and any churn are done.
func (w *loadWorker) run(endNs int64) {
	keys := make([][]byte, batchKeys)
	idx := make([]int32, batchKeys)
	res := make([]flowserve.Result, batchKeys)
	probeRes := make([]flowserve.Result, batchKeys)
	st := w.st
	sinceChurn := 0
	for ; ; w.n++ {
		n := w.n
		tw := now()
		if tw >= endNs {
			break
		}
		for j := range keys {
			fi := w.trace.lookups[w.pos]
			if w.pos++; w.pos == len(w.trace.lookups) {
				w.pos = 0
			}
			idx[j] = fi
			keys[j] = w.pop.key(fi)
		}
		t0 := now()
		w.tgt.rd.LookupMany(keys, res)
		t1 := now()
		st.lat.add(t1 - t0)
		st.batches++
		st.lookups += batchKeys
		for j, r := range res {
			switch {
			case r.OK && r.Value == valueOf(idx[j]):
			case !r.OK && w.pop.excused(idx[j], t0):
				st.churnMisses++
			default:
				st.failedLooks++
			}
		}
		end := t1
		id := uint64(w.id+1)<<48 | n
		// Traced runs keep the span tree of every probeEvery-th batch, the
		// same batches whose churn and direct probe they record.
		keep := (n+1)%probeEvery == 0
		if sp := w.spans; sp != nil {
			tv := now()
			sp.record(spanLookupMany, id, id, t0, t1, keep)
			sp.record(spanVerify, id, id, t1, tv, keep)
			end = tv
			if keep && w.probe != nil {
				w.probe(keys, probeRes)
				end = now()
				st.probeKeys += batchKeys
				st.wire.add((t1 - t0) - (end - tv))
				sp.record(spanProbe, id, id, tv, end, true)
			}
		}
		if sinceChurn += batchKeys; sinceChurn >= churnEvery {
			sinceChurn = 0
			end = w.churn(id, keep)
		}
		if w.spans != nil {
			w.spans.record(spanBatch, id, 0, tw, end, keep)
		}
		st.lastEnd = end
	}
}

// churn deletes and re-inserts the worker's next churn flow, stamping the
// flow's window around both calls, and returns the time it finished.
func (w *loadWorker) churn(parent uint64, keep bool) int64 {
	fi := w.trace.churn[w.cpos]
	if w.cpos++; w.cpos == len(w.trace.churn) {
		w.cpos = 0
	}
	st := w.st
	st.churns++
	w.pop.gen[fi].Add(1)
	t0 := now()
	if !w.tgt.wr.Delete(w.pop.key(fi)) {
		st.failedOps++ // only this worker churns fi, so it must be present
	}
	t1 := now()
	if err := w.tgt.wr.Insert(w.pop.key(fi), valueOf(fi)); err != nil {
		st.failedOps++
	}
	t2 := now()
	w.pop.churnEnd[fi].Store(t2)
	w.pop.gen[fi].Add(1)
	if w.spans != nil {
		w.spans.record(spanChurnDelete, parent, parent, t0, t1, keep)
		w.spans.record(spanChurnInsert, parent, parent, t1, t2, keep)
	}
	return t2
}

// runLoad runs the workers from start until dur has passed and merges what
// they measured.
func runLoad(workers []*loadWorker, start int64, dur time.Duration) *loadStats {
	end := start + int64(dur)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *loadWorker) {
			defer wg.Done()
			w.run(end)
		}(w)
	}
	wg.Wait()
	total := newLoadStats()
	for _, w := range workers {
		total.merge(w.st)
	}
	return total
}

// floorReader is the no-op Reader the harness floor is measured against:
// it answers every key with its installed value, recovered from the key's
// offset in the population arena, so verification passes without any
// table.
type floorReader struct{ pop *population }

func (f floorReader) Lookup(key []byte) (uint64, bool) {
	return valueOf(f.index(key)), true
}

func (f floorReader) LookupMany(keys [][]byte, res []flowserve.Result) int {
	for i, k := range keys {
		res[i] = flowserve.Result{Value: valueOf(f.index(k)), OK: true}
	}
	return len(keys)
}

func (f floorReader) index(key []byte) int32 {
	off := uintptr(unsafe.Pointer(unsafe.SliceData(key))) - uintptr(unsafe.Pointer(unsafe.SliceData(f.pop.arena)))
	return int32(off / packet.HeaderKeyLen)
}

func (floorReader) Insert([]byte, uint64) error { return nil }
func (floorReader) Update([]byte, uint64) bool  { return true }
func (floorReader) Delete([]byte) bool          { return true }

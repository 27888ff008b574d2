package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"halo/internal/flowcluster"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/packet"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// spec is one workload. The reasons for each choice are in BENCHMARK.json
// and README.md.
type spec struct {
	flows int
	pop   trafficgen.Popularity
	// cluster serves the flows from two cluster nodes over unix:// behind
	// one flowcluster.Router, and live-migrates a half-range away and back
	// during the run; otherwise the benchmark calls one flowserve.Table.
	cluster bool
}

var specs = map[string]spec{
	"table-uniform":   {flows: 1_000_000, pop: trafficgen.Uniform},
	"cluster-migrate": {flows: 100_000, pop: trafficgen.Zipf, cluster: true},
}

const (
	tableShards  = 4
	drainTimeout = 5 * time.Second
	moveTimeout  = 30 * time.Second
)

// tableEntries sizes a table for the whole population with the same ~12%
// slot headroom cmd/flowload uses.
func tableEntries(flows int) uint64 { return uint64(flows) + uint64(flows)/8 + 1024 }

// setupTimes is what one set-up measured, in seconds unless named
// otherwise.
type setupTimes struct {
	total, generate, trace, dial, install float64
	bytesPerFlow                          float64
	displacementsPerInsert                float64
}

type node struct {
	srv    *flowwire.Server
	ep     flowwire.Endpoint
	tbl    *flowserve.Table
	served chan error
}

// rig is one set-up workload: the population and traces, the tables, and
// whatever serves them.
type rig struct {
	spec   spec
	dir    string
	pop    *population
	traces []workerTrace
	tables []*flowserve.Table
	nodes  []*node
	router *flowcluster.Router
	tgt    target
	times  setupTimes
}

// stopwatch sums the set-up steps that count towards setup_s, leaving out
// the collections made only to measure the heap.
type stopwatch struct {
	total   time.Duration
	started time.Time
}

func (s *stopwatch) start() { s.started = time.Now() }

func (s *stopwatch) stop() float64 {
	d := time.Since(s.started)
	s.total += d
	return d.Seconds()
}

// liveHeap collects twice, so pooled scratch from the previous cycle is
// gone too, and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup builds workload sp from seed: the flow population, the traces, the
// table(s), the servers, the dial and the install. dir holds the sockets.
// With spans set, every install Insert is traced.
func setup(sp spec, seed uint64, dir string, spans *spanBuf) (r *rig, err error) {
	r = &rig{spec: sp, dir: dir}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	var sw stopwatch
	sw.start()
	w := trafficgen.Generate(trafficgen.Scenario{Name: "perfbench", Flows: sp.flows, Rules: 1, Popularity: sp.pop}, seed)
	r.times.generate = sw.stop()
	sw.start()
	r.pop = newPopulation(w)
	r.traces = drawTraces(w, seed)
	r.times.trace = sw.stop()
	w = nil // the heap baseline leaves the generator's own state out
	heap0 := liveHeap()

	sw.start()
	if err := r.serve(); err != nil {
		return r, err
	}
	t0 := time.Now()
	if err := install(r.tgt.wr, r.pop, spans); err != nil {
		return r, err
	}
	r.times.install = time.Since(t0).Seconds()
	sw.stop()
	var inserts, displacements uint64
	for _, t := range r.tables {
		ts := t.Stats()
		inserts += ts.Inserts
		displacements += ts.Displacements
	}
	r.times.displacementsPerInsert = ratio(float64(displacements), float64(inserts))
	r.times.total = sw.total.Seconds()
	r.times.bytesPerFlow = float64(int64(liveHeap())-int64(heap0)) / float64(sp.flows)
	return r, nil
}

// serve builds the table(s), starts the servers and dials them.
func (r *rig) serve() error {
	newTable := func() (*flowserve.Table, error) {
		t, err := flowserve.New(flowserve.Config{Shards: tableShards, Entries: tableEntries(r.spec.flows), KeyLen: packet.HeaderKeyLen})
		if err == nil {
			r.tables = append(r.tables, t)
		}
		return t, err
	}
	if !r.spec.cluster {
		t, err := newTable()
		if err != nil {
			return err
		}
		r.tgt = target{rd: t, wr: t}
		return nil
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	eps := []flowwire.Endpoint{
		{Transport: flowwire.TransportUnix, Addr: filepath.Join(r.dir, "n0.sock")},
		{Transport: flowwire.TransportUnix, Addr: filepath.Join(r.dir, "n1.sock")},
	}
	for _, ep := range eps {
		t, err := newTable()
		if err != nil {
			return err
		}
		srv, err := flowwire.NewServer(flowwire.Config{Table: t, Self: ep, Cluster: eps})
		if err != nil {
			return err
		}
		ln, err := flowwire.ListenEndpoint(ep)
		if err != nil {
			return fmt.Errorf("listen %s: %w", ep, err)
		}
		n := &node{srv: srv, ep: ep, tbl: t, served: make(chan error, 1)}
		r.nodes = append(r.nodes, n)
		go func() { n.served <- srv.Serve(ln) }()
	}
	t0 := time.Now()
	rt, err := flowcluster.New(eps, flowcluster.Options{Client: flowwire.Options{Conns: 1}})
	if err != nil {
		return err
	}
	r.router = rt
	r.tgt = target{rd: rt, wr: rt, probe: r.clusterProbe}
	r.times.dial = time.Since(t0).Seconds()
	return nil
}

// clusterProbe re-issues a batch directly on the node tables, each key on
// the table of the node the router's map says owns it.
func (r *rig) clusterProbe() func([][]byte, []flowserve.Result) {
	byEp := map[flowwire.Endpoint]*flowserve.Table{}
	for _, n := range r.nodes {
		byEp[n.ep] = n.tbl
	}
	groups := make([][][]byte, len(r.nodes))
	return func(keys [][]byte, res []flowserve.Result) {
		m := r.router.Map()
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		for _, k := range keys {
			o := m.OwnerOfKey(k)
			groups[o] = append(groups[o], k)
		}
		for o, g := range groups {
			if len(g) > 0 {
				byEp[m.Nodes[o]].LookupMany(g, res)
			}
		}
	}
}

// install inserts the whole population through wr from loadGoros
// goroutines, each taking every loadGoros-th flow.
func install(wr flowserve.Writer, pop *population, spans *spanBuf) error {
	errs := make([]error, loadGoros)
	var mu sync.Mutex // guards spans: both installers record into it
	var wg sync.WaitGroup
	for g := 0; g < loadGoros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < pop.n; i += loadGoros {
				t0 := now()
				err := wr.Insert(pop.key(int32(i)), valueOf(int32(i)))
				if spans != nil {
					t1 := now()
					mu.Lock()
					spans.record(spanInstall, uint64(i)+1, 0, t0, t1, i%64 == 0)
					mu.Unlock()
				}
				if err != nil {
					errs[g] = fmt.Errorf("install flow %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// counters reads every layer's public counters into one map: the servers'
// (which include their tables'), or the table's when there is no server,
// plus the router's (which include its clients').
func (r *rig) counters() map[string]uint64 {
	snap := stats.NewSnapshot()
	if len(r.nodes) > 0 {
		for _, n := range r.nodes {
			n.srv.CollectInto(snap)
		}
	} else {
		for _, t := range r.tables {
			t.CollectInto(snap)
		}
	}
	if r.router != nil {
		r.router.CollectInto(snap)
	}
	return snap.Counters
}

// transportErr returns the router's sticky transport failure.
func (r *rig) transportErr() error {
	if r.router != nil {
		return r.router.Err()
	}
	return nil
}

// close drains every server, checking that each answered every frame it
// accepted, then closes the client side and removes the sockets.
func (r *rig) close() error {
	var errs []error
	for _, n := range r.nodes {
		rep := n.srv.Drain(drainTimeout)
		if rep.Lost() != 0 || !rep.Clean {
			errs = append(errs, fmt.Errorf("drain %s: %d of %d accepted frames unanswered (clean=%v)",
				n.ep, rep.Lost(), rep.FramesAccepted+rep.FramesRejected, rep.Clean))
		}
		if err := <-n.served; !errors.Is(err, flowwire.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve %s: %v", n.ep, err))
		}
	}
	if r.router != nil {
		r.router.Close()
	}
	if len(r.nodes) > 0 {
		os.RemoveAll(r.dir)
	}
	return errors.Join(errs...)
}

// moveResult is what the cluster mover saw.
type moveResult struct {
	moves                             int
	maxS                              float64
	snapshotted, forwarded, conflicts uint64
	err                               error
}

// halfRange is the lower half of node 0's epoch-1 range, which the mover
// sends to node 1 and back.
var halfRange = flowwire.Range{Lo: 0, Hi: 1 << 62}

// runMoves performs count MoveRange calls spread evenly over [start,
// start+dur), alternately moving halfRange to node 1 and back to node 0.
// Each must return nil with a balanced ledger.
func (r *rig) runMoves(start int64, dur time.Duration, count int, spans *spanBuf) moveResult {
	var res moveResult
	for k := 0; k < count; k++ {
		at := start + int64(dur)*int64(2*k+1)/int64(2*count)
		if d := at - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		t0 := now()
		mi, err := r.router.MoveRange(halfRange, 1-k%2, moveTimeout)
		t1 := now()
		if spans != nil {
			spans.record(spanMove, uint64(k)+1, 0, t0, t1, true)
		}
		if err == nil && (mi.Enqueued != mi.Sent || mi.Sent != mi.Acked) {
			err = fmt.Errorf("ledger enqueued %d sent %d acked %d", mi.Enqueued, mi.Sent, mi.Acked)
		}
		if err != nil {
			res.err = fmt.Errorf("move %d of %s: %w", k+1, halfRange, err)
			return res
		}
		res.moves++
		res.maxS = max(res.maxS, float64(t1-t0)/1e9)
		res.snapshotted += mi.Snapshotted
		res.forwarded += mi.Forwarded
		res.conflicts += mi.Conflicts
	}
	return res
}

package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// runtimeSample is the process-wide cost counters read at a phase boundary.
type runtimeSample struct {
	cpuNs       int64 // user+sys CPU of the whole process (getrusage)
	allocs      uint64
	allocBytes  uint64
	gcCPU, cpuS float64 // runtime/metrics CPU-class estimates, seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeSample{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocs:     ss[0].Value.Uint64(),
		allocBytes: ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		cpuS:       ss[3].Value.Float64(),
	}
}

// segmentLen is the length of one measured load segment, and calibLen that
// of the calibration slices around it. A phase alternates them, starting
// and ending with a slice. Each segment's timing metrics are scaled by the
// host speed the two slices around it measured (see calibrator), and each
// timing metric the phase reports is the median of the scaled segments.
// The drift of a shared host — other tenants slowing every run by up to 2×
// for minutes at a time — slows the calibrator as it slows the program and
// cancels out; a change to the program does not move the calibrator and
// shows in full.
const (
	segmentLen = 400 * time.Millisecond
	calibLen   = 100 * time.Millisecond
)

// phaseOut is one measured phase.
type phaseOut struct {
	load     *loadStats        // all segments merged
	segs     []segment         // per-segment timing metrics
	rt0, rt1 runtimeSample     // at the phase boundaries
	delta    map[string]uint64 // counter deltas over the phase
	moves    moveResult
	spans    []*spanBuf // traced phases: one per load worker
}

// segment is one segment's timing metrics, as measured, and the host speed
// around it: nominal over measured calibrator cost, in wall and in CPU time
// (1 on the reference host, below 1 on a slower one). Throughput scales
// with the wall speed, which also drops when the process gets less of the
// CPUs; latency and CPU cost scale with the CPU speed, which drops only
// when the CPU the process does get runs slower.
type segment struct {
	lookupsPerS, p50us, p90us, cpuNsPerLookup float64
	speed, cpuSpeed                           float64
}

// scaled returns the segment's timing metrics as they would read on the
// reference host.
func (s segment) scaled() segment {
	return segment{
		lookupsPerS:    s.lookupsPerS / s.speed,
		p50us:          s.p50us * s.cpuSpeed,
		p90us:          s.p90us * s.cpuSpeed,
		cpuNsPerLookup: s.cpuNsPerLookup * s.cpuSpeed,
		speed:          1,
		cpuSpeed:       1,
	}
}

// movesFor is how many MoveRange calls a phase of length dur schedules:
// one every 2.5 s, in away-and-back pairs, at least one pair.
func movesFor(dur time.Duration) int {
	return 2 * max(1, int(dur/(5*time.Second)))
}

// phase runs the load for dur and checks its outputs: every issued key
// reached a table, no client or router error, every move balanced.
func (r *rig) phase(dur time.Duration, cal calibrator, tr *tracer, chk *checks) *phaseOut {
	ph := &phaseOut{load: newLoadStats()}
	workers := make([]*loadWorker, loadGoros)
	for i := range workers {
		var spans *spanBuf
		if tr != nil {
			spans = tr.buf(i)
			ph.spans = append(ph.spans, spans)
		}
		workers[i] = newLoadWorker(i, r.pop, r.tgt, r.traces[i], spans)
	}
	var moverSpans *spanBuf
	if tr != nil && r.spec.cluster {
		moverSpans = tr.buf(loadGoros + 1)
	}
	before := r.counters()
	if tr != nil {
		tr.sample("phase_start", before)
	}
	ph.rt0 = readRuntime()
	start := now()
	moved := make(chan moveResult, 1)
	if r.spec.cluster {
		go func() { moved <- r.runMoves(start, dur, movesFor(dur), moverSpans) }()
	}
	nseg := max(1, int((dur-calibLen)/(segmentLen+calibLen)))
	segDur := (dur-calibLen)/time.Duration(nseg) - calibLen
	prev := calibrate(cal, calibLen)
	for i := 0; i < nseg; i++ {
		for _, w := range workers {
			w.st = newLoadStats()
		}
		segStart := now()
		rt := readRuntime()
		ld := runLoad(workers, segStart, segDur)
		rt1 := readRuntime()
		next := calibrate(cal, calibLen)
		nominal := cal.nominalNs()
		ph.segs = append(ph.segs, segment{
			lookupsPerS:    ratio(float64(ld.lookups-ld.failedLooks), float64(ld.lastEnd-segStart)/1e9),
			p50us:          ld.lat.quantile(0.50) / 1e3,
			p90us:          ld.lat.quantile(0.90) / 1e3,
			cpuNsPerLookup: ratio(float64(rt1.cpuNs-rt.cpuNs), float64(ld.lookups)),
			speed:          nominal / math.Sqrt(prev.wallNs*next.wallNs),
			cpuSpeed:       nominal / math.Sqrt(prev.cpuNs*next.cpuNs),
		})
		ph.load.merge(ld)
		prev = next
	}
	if r.spec.cluster {
		ph.moves = <-moved
	}
	ph.rt1 = readRuntime()
	after := r.counters()
	if tr != nil {
		tr.sample("phase_end", after)
	}
	ph.delta = make(map[string]uint64, len(after))
	for k, v := range after {
		ph.delta[k] = v - before[k]
	}

	issued := ph.load.lookups + ph.load.probeKeys
	if served := ph.delta["flowserve.lookups"]; served != issued {
		chk.add("lookup ledger", fmt.Errorf("issued %d keys, tables served %d", issued, served))
	}
	for _, c := range []string{"flowwire.client.errors", "flowwire.client.timeouts", "flowcluster.errors"} {
		if ph.delta[c] != 0 {
			chk.add("error counters", fmt.Errorf("%s rose by %d", c, ph.delta[c]))
		}
	}
	chk.add("transport", r.transportErr())
	if r.spec.cluster {
		chk.add("live migration", ph.moves.err)
	}
	fmt.Printf("phase traced=%v: %d batches, %d lookups, %d churns, %d churn-excused misses, %d failed, %d moves\n",
		tr != nil, ph.load.batches, ph.load.lookups, ph.load.churns, ph.load.churnMisses, ph.load.failed(), ph.moves.moves)
	fmt.Printf("segments as measured (klookups/s, p50 us, p90 us, host speed by %s):", cal.name())
	for _, sg := range ph.segs {
		fmt.Printf(" %.0f/%.1f/%.1f/%.2f", sg.lookupsPerS/1e3, sg.p50us, sg.p90us, sg.speed)
	}
	fmt.Println()
	return ph
}

// e2eMetrics computes the end-to-end metrics of one set-up and one phase;
// setupS is the set-up time to report. Timing metrics are the median over
// the phase's segments, scaled to the reference host (see segmentLen).
func e2eMetrics(setupS float64, st setupTimes, ph *phaseOut) map[string]float64 {
	ld := ph.load
	fmt.Printf("batch latency over %d batches in %d segments, as measured: p50 %.1fus p90 %.1fus p99 %.1fus p99.9 %.1fus max %.1fus\n",
		ld.lat.n, len(ph.segs), ld.lat.quantile(0.5)/1e3, ld.lat.quantile(0.9)/1e3, ld.lat.quantile(0.99)/1e3, ld.lat.quantile(0.999)/1e3, ld.lat.quantile(1)/1e3)
	raw := medianSegment(ph.segs)
	fmt.Printf("segment medians as measured: %.6g lookups/s, p50 %.4gus, p90 %.4gus, %.4g cpu-ns/lookup; host speed %.3f wall, %.3f cpu\n",
		raw.lookupsPerS, raw.p50us, raw.p90us, raw.cpuNsPerLookup, raw.speed, raw.cpuSpeed)
	scaled := make([]segment, len(ph.segs))
	for i, sg := range ph.segs {
		scaled[i] = sg.scaled()
	}
	m := medianSegment(scaled)
	return map[string]float64{
		"lookups_per_s":     m.lookupsPerS,
		"batch_p50_us":      m.p50us,
		"batch_p90_us":      m.p90us,
		"cpu_ns_per_lookup": m.cpuNsPerLookup,
		"ok_frac":           1 - ratio(float64(ld.failed()), float64(ld.attempted())),
		"setup_s":           setupS,
		"bytes_per_flow":    st.bytesPerFlow,
	}
}

// medianSegment returns the median of every field over segs.
func medianSegment(segs []segment) segment {
	field := func(f func(segment) float64) float64 {
		xs := make([]float64, len(segs))
		for i, sg := range segs {
			xs[i] = f(sg)
		}
		return median(xs)
	}
	return segment{
		lookupsPerS:    field(func(s segment) float64 { return s.lookupsPerS }),
		p50us:          field(func(s segment) float64 { return s.p50us }),
		p90us:          field(func(s segment) float64 { return s.p90us }),
		cpuNsPerLookup: field(func(s segment) float64 { return s.cpuNsPerLookup }),
		speed:          field(func(s segment) float64 { return s.speed }),
		cpuSpeed:       field(func(s segment) float64 { return s.cpuSpeed }),
	}
}

// layerMetrics computes the per-layer metrics of a traced phase and the
// traced set-up. A metric whose layer the workload does not use reads 0.
func layerMetrics(r *rig, st setupTimes, ph *phaseOut, floorNs, hostRefNs float64) map[string]float64 {
	d := func(name string) float64 { return float64(ph.delta[name]) }
	var dur [numSpanKinds]hist
	for _, b := range ph.spans {
		for k := range dur {
			dur[k].merge(b.dur[k])
		}
	}
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	ld := ph.load
	kbatch := float64(ld.batches) / 1e3
	probe := us(&dur[spanProbe], 0.5)
	wire := us(ld.wire, 0.5)
	if !r.spec.cluster {
		probe, wire = us(&dur[spanLookupMany], 0.5), 0 // the call is the probe
	}
	m := map[string]float64{
		"loadgen.floor_ns_per_batch": floorNs,
		"loadgen.trace_s":            st.trace,
		"loadgen.churn_misses":       float64(ld.churnMisses),
		"host.ref_ns":                hostRefNs,
		"host.calib_speed":           medianSegment(ph.segs).speed,
		"trafficgen.generate_s":      st.generate,

		"flowserve.probe_us_p50":             probe,
		"flowserve.retries_per_klookup":      ratio(d("flowserve.lookup.retries"), d("flowserve.lookups")/1e3),
		"flowserve.lock_fallbacks":           d("flowserve.lookup.lock_fallbacks"),
		"flowserve.insert_us_p50":            us(&dur[spanChurnInsert], 0.5),
		"flowserve.delete_us_p50":            us(&dur[spanChurnDelete], 0.5),
		"flowserve.displacements_per_insert": st.displacementsPerInsert,
		"flowserve.install_ns_per_flow":      st.install * 1e9 / float64(r.spec.flows),
		"flowserve.hit_frac":                 ratio(d("flowserve.hits"), d("flowserve.lookups")),

		"flowwire.wire_us_p50":              wire,
		"flowwire.coalesce.frames_per_call": ratio(d("flowwire.coalesce.frames"), d("flowwire.coalesce.calls")),
		"flowwire.coalesce.keys_per_call":   ratio(d("flowwire.coalesce.keys"), d("flowwire.coalesce.calls")),
		"flowwire.client.errors":            d("flowwire.client.errors"),
		"flowwire.client.timeouts":          d("flowwire.client.timeouts"),
		"flowwire.client.late_replies":      d("flowwire.client.late_replies"),
		"flowwire.dial_s":                   st.dial,
		"flowwire.cluster.wrong_shard":      d("flowwire.cluster.wrong_shard"),
		"flowcluster.subbatches_per_batch":  ratio(d("flowcluster.subbatches"), d("flowcluster.batches")),
		"flowcluster.redirects_per_kbatch":  ratio(d("flowcluster.redirects"), kbatch),
		"flowcluster.map_refreshes":         d("flowcluster.map_refreshes"),
		"flowcluster.move_s_max":            ph.moves.maxS,
		"flowcluster.mig_snapshotted":       float64(ph.moves.snapshotted),
		"flowcluster.mig_forwarded":         float64(ph.moves.forwarded),
		"flowcluster.mig_conflicts":         float64(ph.moves.conflicts),

		"go.allocs_per_lookup":      ratio(float64(ph.rt1.allocs-ph.rt0.allocs), float64(ld.lookups)),
		"go.alloc_bytes_per_lookup": ratio(float64(ph.rt1.allocBytes-ph.rt0.allocBytes), float64(ld.lookups)),
		"go.gc_cpu_frac":            ratio(ph.rt1.gcCPU-ph.rt0.gcCPU, ph.rt1.cpuS-ph.rt0.cpuS),
	}
	return m
}

// floorDuration is how long the harness floor runs.
const floorDuration = 300 * time.Millisecond

// floorNsPerBatch runs one worker's load loop — trace walk, verification,
// churn bookkeeping — against a Reader that does no lookup, and returns
// the loop's own cost per batch.
func floorNsPerBatch(r *rig) float64 {
	fr := floorReader{pop: r.pop}
	w := newLoadWorker(0, r.pop, target{rd: fr, wr: fr}, r.traces[0], nil)
	start := now()
	st := runLoad([]*loadWorker{w}, start, floorDuration)
	return ratio(float64(st.lastEnd-start), float64(st.batches))
}

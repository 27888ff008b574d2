// Command perfbench is the serving benchmark. It hosts the flow-serving
// stack in-process — a flowserve.Table, or a two-node cluster of
// flowwire.Servers over unix:// behind a flowcluster.Router — drives it from
// pre-drawn trafficgen traces, verifies every lookup, and prints one JSON
// result line.
//
//	perfbench --workload table-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half, and the result holds
// the per-layer metrics plus the tracing overhead on every end-to-end
// metric. All timing and counting is done from outside the layers: around
// calls into their public functions, and as deltas of their counters.
// README.md lists the workloads and metrics and which end-to-end metric
// each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported metric, as BENCHMARK.json names it.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"lookups_per_s", "1/s"},
	{"batch_p50_us", "us"},
	{"batch_p90_us", "us"},
	{"cpu_ns_per_lookup", "ns"},
	{"ok_frac", "frac"},
	{"setup_s", "s"},
	{"bytes_per_flow", "B"},
}

var perLayer = []metric{
	{"loadgen.floor_ns_per_batch", "ns"},
	{"loadgen.trace_s", "s"},
	{"loadgen.churn_misses", "count"},
	{"host.ref_ns", "ns"},
	{"host.calib_speed", "x"},
	{"trafficgen.generate_s", "s"},
	{"flowserve.probe_us_p50", "us"},
	{"flowserve.retries_per_klookup", "1/klookup"},
	{"flowserve.lock_fallbacks", "count"},
	{"flowserve.insert_us_p50", "us"},
	{"flowserve.delete_us_p50", "us"},
	{"flowserve.displacements_per_insert", "1/insert"},
	{"flowserve.install_ns_per_flow", "ns"},
	{"flowserve.hit_frac", "frac"},
	{"flowwire.wire_us_p50", "us"},
	{"flowwire.coalesce.frames_per_call", "frames/call"},
	{"flowwire.coalesce.keys_per_call", "keys/call"},
	{"flowwire.client.errors", "count"},
	{"flowwire.client.timeouts", "count"},
	{"flowwire.client.late_replies", "count"},
	{"flowwire.dial_s", "s"},
	{"flowwire.cluster.wrong_shard", "count"},
	{"flowcluster.subbatches_per_batch", "1/batch"},
	{"flowcluster.redirects_per_kbatch", "1/kbatch"},
	{"flowcluster.map_refreshes", "count"},
	{"flowcluster.move_s_max", "s"},
	{"flowcluster.mig_snapshotted", "count"},
	{"flowcluster.mig_forwarded", "count"},
	{"flowcluster.mig_conflicts", "count"},
	{"go.allocs_per_lookup", "1/lookup"},
	{"go.alloc_bytes_per_lookup", "B/lookup"},
	{"go.gc_cpu_frac", "frac"},
}

// overheadName is the per-layer metric holding the tracing overhead on an
// end-to-end metric: (traced - untraced) / untraced.
func overheadName(e2e string) string { return "trace.overhead." + e2e }

func init() {
	for _, m := range endToEnd {
		perLayer = append(perLayer, metric{overheadName(m.name), "frac"})
	}
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// procs is the GOMAXPROCS every workload runs with. On two Ps the batch
// latency of table-uniform has two modes, likely one worker running alone
// and both together, and the host sets the mix; on cluster-migrate each
// goroutine hand-off may wake the other vCPU, whose wake-up latency belongs
// to the host. On one P the workers and the servers interleave inside the
// Go scheduler, and runs repeat.
const procs = 1

// outDir holds everything a run writes: sockets and the span file.
const outDir = ".bench_build"

func main() {
	var cfg config
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the flow population and traces")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measured load")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and tracing overhead")
	flag.Parse()
	cfg.trace = *trace == 1
	if _, ok := specs[cfg.workload]; !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --trace 0|1, --seconds > 0\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run sets the workload up, measures it and tears it down. A failed output
// check marks the result incorrect; it is reported, never retried.
func run(cfg config) (*result, error) {
	runtime.GOMAXPROCS(procs)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, procs)
	cal, err := newCalibrator(specs[cfg.workload])
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	var chk checks
	res, err := measure(cfg, cal, &chk)
	chk.add("calibrator "+cal.name(), cal.close())
	if err != nil {
		return nil, err
	}
	res.Correct = chk.ok()
	return res, nil
}

// measure runs the set-ups and the phases, timing them against cal.
func measure(cfg config, cal calibrator, chk *checks) (*result, error) {
	sp := specs[cfg.workload]
	dur := time.Duration(cfg.seconds * float64(time.Second))
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	refStart := hostRef()

	// Untraced runs set up five times and report the median; a traced
	// run sets up once untraced and once traced, and keeps the traced one.
	// Each set-up time is scaled, like the phases' timing metrics, by the
	// host speed the calibration slices around it measured.
	var tr *tracer
	setups := 5
	if cfg.trace {
		tr = &tracer{}
		setups = 2
	}
	var r *rig
	var times []setupTimes
	var setupS, setupSpeed []float64
	before := calibrate(cal, calibLen)
	for i := 0; i < setups; i++ {
		var spans *spanBuf
		if cfg.trace && i == setups-1 {
			spans = tr.buf(loadGoros)
		}
		var err error
		if r, err = setup(sp, cfg.seed, dir, spans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		after := calibrate(cal, calibLen)
		speed := cal.nominalNs() / math.Sqrt(before.wallNs*after.wallNs)
		times = append(times, r.times)
		setupS = append(setupS, r.times.total*speed)
		setupSpeed = append(setupSpeed, speed)
		if i < setups-1 {
			chk.add(fmt.Sprintf("teardown after set-up %d", i+1), r.close())
		}
		before = after
	}
	fmt.Printf("set-ups as measured (s, host speed by %s):", cal.name())
	for i, t := range times {
		fmt.Printf(" %.4g/%.3f", t.total, setupSpeed[i])
	}
	fmt.Println()

	var untraced, traced *phaseOut
	var floor float64
	if !cfg.trace {
		untraced = r.phase(dur, cal, nil, chk)
	} else {
		floor = floorNsPerBatch(r)
		untraced = r.phase(dur/2, cal, nil, chk)
		traced = r.phase(dur/2, cal, tr, chk)
	}
	chk.add("teardown", r.close())
	hostRefNs := (refStart + hostRef()) / 2

	res := &result{Metrics: map[string]value{}}
	for _, ph := range []*phaseOut{untraced, traced} {
		if ph != nil {
			res.Attempted += ph.load.attempted()
			res.Failed += ph.load.failed()
		}
	}
	if res.Failed > 0 {
		chk.add("verification", fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	fmt.Printf("host.ref_ns %.0f\n", hostRefNs)
	if !cfg.trace {
		report(res, endToEnd, e2eMetrics(median(setupS), times[len(times)-1], untraced))
	} else {
		plain := e2eMetrics(setupS[0], times[0], untraced)
		withTrace := e2eMetrics(setupS[1], times[1], traced)
		pl := layerMetrics(r, times[1], traced, floor, hostRefNs)
		for _, m := range endToEnd {
			pl[overheadName(m.name)] = ratio(withTrace[m.name]-plain[m.name], plain[m.name])
			fmt.Printf("e2e %-20s untraced %-12.6g traced %.6g\n", m.name, plain[m.name], withTrace[m.name])
		}
		report(res, perLayer, pl)
		path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s (%d not stored: buffers full)\n", path, tr.dropped())
	}
	return res, nil
}

// checks collects output-check failures; any one marks the run incorrect.
type checks struct{ failed []string }

func (c *checks) add(what string, err error) {
	if err != nil {
		msg := fmt.Sprintf("check failed: %s: %v", what, err)
		fmt.Println(msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
		c.failed = append(c.failed, msg)
	}
}

func (c *checks) ok() bool { return len(c.failed) == 0 }

// report copies the named metrics into the result and prints each with its
// unit.
func report(res *result, ms []metric, vals map[string]float64) {
	for _, m := range ms {
		v := vals[m.name]
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Printf("metric %-36s %14.6g %s\n", m.name, v, m.unit)
	}
}

// median returns the middle value of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostRefSink keeps the reference loop's result alive.
var hostRefSink uint64

// hostRef times a fixed integer loop: the median of five runs, in ns. It
// tells a machine-wide slowdown apart from a program change; it is never a
// gate.
func hostRef() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		t0 := time.Now()
		x := uint64(i) + 0x9e3779b97f4a7c15
		for j := 0; j < 2_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		hostRefSink += x
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}

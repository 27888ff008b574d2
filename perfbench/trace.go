package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors the run clock; now reads the monotonic clock against it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// hist is a log-linear histogram of nanosecond values with 1/128 relative
// bucket width. It belongs to the benchmark, not to the program under test,
// so a change to the program's own stats package cannot move a reported
// quantile.
type hist struct {
	counts [64 << histSubBits]uint64
	n      uint64
}

const histSubBits = 7

func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>uint(e)) - 1<<histSubBits
}

// histLow returns bucket i's lower bound and width.
func histLow(i int) (low, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	e := uint(i>>histSubBits) - 1
	m := uint64(i&(1<<histSubBits-1)) + 1<<histSubBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, interpolated linearly inside the
// bucket that holds it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := histLow(i)
			return low + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histLow(len(h.counts) - 1)
	return low + width
}

// Span kinds recorded by the traced run, each around one call the benchmark
// makes into a layer (or around its own verification).
const (
	spanBatch       = iota // root: one load-loop iteration
	spanLookupMany         // the Reader.LookupMany call
	spanVerify             // checking every result against the population
	spanProbe              // sampled direct Table.LookupMany re-issue
	spanChurnDelete        // churn Writer.Delete
	spanChurnInsert        // churn Writer.Insert
	spanInstall            // one set-up Writer.Insert
	spanMove               // one Router.MoveRange
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"batch", "lookup_many", "verify", "direct_probe",
	"churn_delete", "churn_insert", "install_insert", "move_range",
}

// span is one recorded interval. Spans of one batch share ID (the batch
// id, which is also the request id); Parent is the ID of the span that
// caused this one, 0 for a root.
type span struct {
	ID, Parent uint64
	Start, End int64
	Kind       uint8
	Worker     uint8
}

// spanBuf is one goroutine's span store: fixed capacity, allocated before
// the clock starts, so recording never allocates. Spans beyond capacity are
// counted, not stored; durations always reach the histograms.
type spanBuf struct {
	worker  uint8
	spans   []span
	dropped uint64
	dur     [numSpanKinds]*hist
}

const spanCap = 1 << 15

func newSpanBuf(worker int) *spanBuf {
	b := &spanBuf{worker: uint8(worker), spans: make([]span, 0, spanCap)}
	for i := range b.dur {
		b.dur[i] = new(hist)
	}
	return b
}

// record observes a span's duration and stores the span when keep is set
// and there is room.
func (b *spanBuf) record(kind int, id, parent uint64, start, end int64, keep bool) {
	b.dur[kind].add(end - start)
	if !keep {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Start: start, End: end, Kind: uint8(kind), Worker: b.worker})
}

// counterSample is the counters read at one span boundary.
type counterSample struct {
	Boundary string            `json:"boundary"`
	AtNs     int64             `json:"at_ns"`
	Counters map[string]uint64 `json:"counters"`
}

// tracer collects every goroutine's span buffer and the counter samples of
// one traced run; write puts them out as JSON lines at exit.
type tracer struct {
	bufs    []*spanBuf
	samples []counterSample
}

func (t *tracer) buf(worker int) *spanBuf {
	b := newSpanBuf(worker)
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) sample(boundary string, c map[string]uint64) {
	t.samples = append(t.samples, counterSample{Boundary: boundary, AtNs: now(), Counters: c})
}

func (t *tracer) dropped() (n uint64) {
	for _, b := range t.bufs {
		n += b.dropped
	}
	return n
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.samples {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"worker":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s.ID, s.Parent, spanNames[s.Kind], s.Worker, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

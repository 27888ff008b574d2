package flowwire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"halo/internal/flowserve"
	"halo/internal/stats"
)

// ErrServerClosed is returned by Serve after Drain or Close stops the
// listener, mirroring net/http.
var ErrServerClosed = errors.New("flowwire: server closed")

// Config parametrises a Server. The zero value of every field but Table is
// usable; defaults are applied by NewServer.
type Config struct {
	// Table is the flowserve table the server fronts. Required.
	Table *flowserve.Table

	// MaxFrame bounds accepted frame length in bytes (default
	// DefaultMaxFrame). Longer frames earn StatusErrOversized and a close.
	MaxFrame uint32

	// Window is the per-connection in-flight request budget (default 64).
	// When a client has Window requests parsed but unanswered, the server
	// stops reading its socket — backpressure propagates through TCP
	// instead of growing an unbounded queue.
	Window int

	// CoalesceFrames caps how many queued LOOKUP/LOOKUP_MANY frames are
	// merged into one Batch.LookupMany call (default 8). Coalescing never
	// crosses a mutation: per-connection FIFO semantics are preserved.
	CoalesceFrames int

	// IdleTimeout is the read deadline between frames (default 2m). A
	// connection idle longer is closed.
	IdleTimeout time.Duration

	// WriteTimeout bounds each reply flush (default 30s).
	WriteTimeout time.Duration

	// Self is this node's advertised endpoint in a cluster (the one other
	// nodes and the router dial). Required when Cluster is set; ignored
	// otherwise.
	Self Endpoint

	// Cluster, when non-empty, runs the server as a cluster node: the list
	// is the bootstrap node set (it must include Self), and every node
	// derives the same uniform epoch-1 shard map from it. A cluster node
	// answers keys outside its owned hash ranges with a WRONG_SHARD
	// redirect and honors the migration admin ops (DESIGN.md §13).
	Cluster []Endpoint
}

func (cfg *Config) applyDefaults() error {
	if cfg.Table == nil {
		return errors.New("flowwire: Config.Table is required")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxFrame < headerSize {
		return fmt.Errorf("flowwire: MaxFrame %d smaller than the %d-byte header", cfg.MaxFrame, headerSize)
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.CoalesceFrames <= 0 {
		cfg.CoalesceFrames = 8
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	return nil
}

// serverCounters are the runtime's atomic counters, published under
// flowwire.* by CollectInto. framesAccepted counts fully parsed frames
// (including unknown-op frames, which get typed replies); framesRejected
// counts protocol violations answered with a typed error reply before the
// connection closes. In a clean run repliesWritten equals their sum — the
// zero-loss invariant flowserved asserts at drain.
type serverCounters struct {
	connsAccepted  atomic.Uint64
	connsClosed    atomic.Uint64
	framesAccepted atomic.Uint64
	framesRejected atomic.Uint64
	repliesWritten atomic.Uint64
	writeErrors    atomic.Uint64
	coalesceCalls  atomic.Uint64
	coalesceFrames atomic.Uint64
	coalesceKeys   atomic.Uint64
}

// Server serves a flowserve table over the wire protocol. Create with
// NewServer, run with Serve/ListenAndServe, stop with Drain (graceful) or
// Close (abrupt).
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*srvConn]struct{}
	draining atomic.Bool
	closed   bool

	// cl is the cluster state (shard map, migration engine); nil on a
	// standalone server, which keeps the hot paths cluster-free.
	cl *cluster

	connWG sync.WaitGroup // one per live connection handler
	c      serverCounters
}

// NewServer validates cfg and builds a server.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, conns: make(map[*srvConn]struct{})}
	if len(cfg.Cluster) > 0 {
		cl, err := newCluster(cfg.Self, cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.cl = cl
	}
	return s, nil
}

// clusterMap returns the installed shard map, or nil on a standalone
// server — one pointer load on the hot paths.
func (s *Server) clusterMap() *ShardMap {
	if s.cl == nil {
		return nil
	}
	return s.cl.m.Load()
}

// ListenAndServe listens on a TCP addr ("host:port") and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	return s.ListenAndServeEndpoint(Endpoint{Transport: TransportTCP, Addr: addr})
}

// ListenAndServeOn listens on the named transport and calls Serve.
//
// Deprecated: use ListenAndServeEndpoint with a parsed Endpoint.
func (s *Server) ListenAndServeOn(transport, addr string) error {
	return s.ListenAndServeEndpoint(Endpoint{Transport: transport, Addr: addr})
}

// ListenAndServeEndpoint listens on a parsed endpoint — tcp://host:port,
// unix:///path or shm:///path — and calls Serve. The server runtime is
// transport-agnostic: every connection runs the same
// reader→processor→writer pipeline whatever net.Listener accepted it.
func (s *Server) ListenAndServeEndpoint(ep Endpoint) error {
	ln, err := ListenEndpoint(ep)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Drain or Close stops it, then
// returns ErrServerClosed. One goroutine is spawned per connection.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		s.c.connsAccepted.Add(1)
		c := newSrvConn(s, nc)
		s.mu.Lock()
		if s.draining.Load() || s.closed {
			// Raced with Drain: refuse rather than serve a half-tracked conn.
			s.mu.Unlock()
			nc.Close()
			s.c.connsClosed.Add(1)
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go c.handle()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Addr returns the listener's address (useful with ":0"), or nil before
// Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// DrainReport summarises a graceful drain: the frame/reply ledger at the
// moment every connection finished (or the timeout expired).
type DrainReport struct {
	Conns          uint64 // connections open when the drain began
	FramesAccepted uint64
	FramesRejected uint64
	RepliesWritten uint64
	Clean          bool // every connection drained inside the timeout
}

// Lost is the number of accepted-or-rejected frames whose reply never hit
// the wire — zero on a clean drain with well-behaved clients.
func (r DrainReport) Lost() uint64 {
	owed := r.FramesAccepted + r.FramesRejected
	if r.RepliesWritten >= owed {
		return 0
	}
	return owed - r.RepliesWritten
}

// Drain is the SIGTERM path: stop accepting, stop reading new frames, let
// every already-parsed request complete and flush, then close. Connections
// still busy after timeout are force-closed (report.Clean = false).
func (s *Server) Drain(timeout time.Duration) DrainReport {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		if s.ln != nil {
			s.ln.Close()
		}
	}
	open := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()

	// Unblock readers parked in ReadFrame; they observe draining and exit
	// without consuming further frames.
	for _, c := range open {
		c.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	clean := true
	select {
	case <-done:
	case <-time.After(timeout):
		clean = false
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return DrainReport{
		Conns:          uint64(len(open)),
		FramesAccepted: s.c.framesAccepted.Load(),
		FramesRejected: s.c.framesRejected.Load(),
		RepliesWritten: s.c.repliesWritten.Load(),
		Clean:          clean,
	}
}

// Close abandons all connections immediately. In-flight requests are lost;
// use Drain to stop gracefully.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// CollectInto publishes the server's counters (flowwire.*) and its table's
// counters (flowserve.*) into snap. This is also the STATS reply body.
func (s *Server) CollectInto(snap *stats.Snapshot) {
	snap.Add("flowwire.conns.accepted", s.c.connsAccepted.Load())
	snap.Add("flowwire.conns.closed", s.c.connsClosed.Load())
	snap.Add("flowwire.frames.accepted", s.c.framesAccepted.Load())
	snap.Add("flowwire.frames.rejected", s.c.framesRejected.Load())
	snap.Add("flowwire.replies.written", s.c.repliesWritten.Load())
	snap.Add("flowwire.write.errors", s.c.writeErrors.Load())
	snap.Add("flowwire.coalesce.calls", s.c.coalesceCalls.Load())
	snap.Add("flowwire.coalesce.frames", s.c.coalesceFrames.Load())
	snap.Add("flowwire.coalesce.keys", s.c.coalesceKeys.Load())
	if s.cl != nil {
		s.cl.collectInto(snap)
	}
	s.cfg.Table.CollectInto(snap)
}

// request is one parsed frame travelling reader → processor. A non-OK
// errStatus short-circuits processing into a typed error reply. payload
// aliases fb's pooled buffer; the processor releases fb once the request's
// reply has been emitted (fb is nil for payload-less error requests).
type request struct {
	op        Op
	errStatus Status
	reqID     uint64
	payload   []byte
	fb        *frameBuf
}

// srvConn is one connection's pipeline: the reader (run by handle) parses
// frames into reqCh; the processor serves them against the table, coalescing
// read bursts, into repCh; the writer flushes encoded replies. reqCh's
// capacity is the in-flight window — a full window blocks the reader, which
// stops draining the socket, which backpressures the client through TCP.
type srvConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	reqCh chan request
	repCh chan *frameBuf

	// processor scratch: conn-owned, reused across coalesced groups.
	batch    *flowserve.Batch
	group    []request
	keys     [][]byte
	nkeys    []int
	results  []flowserve.Result
	statuses []Status

	// probing is odd while serveLookups holds a loaded shard map and
	// probes under it; a cutover waits for it before purging (waitProbes).
	probing atomic.Uint64
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	return &srvConn{
		srv:   s,
		nc:    nc,
		br:    bufio.NewReaderSize(nc, 64<<10),
		bw:    bufio.NewWriterSize(nc, 64<<10),
		reqCh: make(chan request, s.cfg.Window),
		repCh: make(chan *frameBuf, s.cfg.Window),
		batch: s.cfg.Table.NewBatch(),
	}
}

// handle runs the connection to completion: reader inline, processor and
// writer as goroutines, shutdown strictly downstream (reader exit closes
// reqCh; processor drains it and closes repCh; writer drains, flushes and
// is the last out).
func (c *srvConn) handle() {
	defer c.srv.connWG.Done()
	procDone := make(chan struct{})
	writeDone := make(chan struct{})
	go func() { defer close(procDone); c.process() }()
	go func() { defer close(writeDone); c.write() }()

	c.read()
	close(c.reqCh)
	<-procDone
	<-writeDone
	c.nc.Close()

	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.c.connsClosed.Add(1)
}

// read parses frames until error, EOF or drain. Protocol violations become
// a final typed-error request (counted rejected) and stop the loop; the
// reply still flows through the ordered pipeline before the close.
func (c *srvConn) read() {
	var f Frame
	for {
		if c.srv.draining.Load() {
			return
		}
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		// Each in-flight frame's payload lives in a pooled buffer (the
		// window holds several at once while coalescing); the processor
		// releases it after the frame's reply is emitted.
		fb := getFrameBuf()
		var err error
		fb.b, err = ReadFrameInto(c.br, c.srv.cfg.MaxFrame, &f, fb.b)
		if err != nil {
			putFrameBuf(fb)
			if err == io.EOF || c.srv.draining.Load() {
				return // clean close, or drain unblocked the read
			}
			var st Status
			switch {
			case errors.Is(err, ErrFrameTooLarge):
				st = StatusErrOversized
			case errors.Is(err, ErrBadVersion):
				st = StatusErrVersion
			case errors.Is(err, ErrShortFrame), errors.Is(err, ErrBadReserved):
				st = StatusErrMalformed
			default:
				// Timeout, transport error, or a short read (the peer died
				// mid-frame): no one is listening, close without a reply.
				return
			}
			c.srv.c.framesRejected.Add(1)
			c.reqCh <- request{op: f.Op, errStatus: st, reqID: f.ReqID}
			return
		}
		req := request{op: f.Op, reqID: f.ReqID, payload: f.Payload, fb: fb}
		switch f.Op {
		case OpHello, OpLookup, OpLookupMany, OpInsert, OpUpdate, OpDelete, OpStats,
			OpShardMap, OpMapUpdate, OpMigStart, OpMigStatus, OpMigApply:
		default:
			req.errStatus = StatusErrOp
		}
		c.srv.c.framesAccepted.Add(1)
		c.reqCh <- req
	}
}

// process serves requests in arrival order. Runs of LOOKUP/LOOKUP_MANY
// frames already sitting in the window are coalesced into one
// Batch.LookupMany; a mutation (or the window running dry) ends the run, so
// FIFO semantics hold.
func (c *srvConn) process() {
	defer close(c.repCh)
	var held request
	hasHeld := false
	for {
		var req request
		if hasHeld {
			req, hasHeld = held, false
		} else {
			var ok bool
			req, ok = <-c.reqCh
			if !ok {
				return
			}
		}
		if req.errStatus != StatusOK {
			c.reply(&Frame{Op: req.op, Status: req.errStatus, ReqID: req.reqID})
			putFrameBuf(req.fb)
			continue
		}
		if req.op != OpLookup && req.op != OpLookupMany {
			c.serveOne(&req)
			putFrameBuf(req.fb)
			continue
		}
		c.group = append(c.group[:0], req)
	collect:
		for len(c.group) < c.srv.cfg.CoalesceFrames {
			select {
			case r2, ok := <-c.reqCh:
				if !ok {
					break collect // flush the group; next receive ends the loop
				}
				if r2.errStatus == StatusOK && (r2.op == OpLookup || r2.op == OpLookupMany) {
					c.group = append(c.group, r2)
				} else {
					held, hasHeld = r2, true
					break collect
				}
			default:
				break collect
			}
		}
		c.serveLookups()
		for i := range c.group {
			// Keys aliased these payload buffers until the batch replies
			// were encoded; now the whole group can go back to the pool.
			putFrameBuf(c.group[i].fb)
			c.group[i].fb = nil
		}
	}
}

// serveLookups answers c.group: one parse pass collects every frame's keys
// (and per-frame typed-error statuses), one Batch.LookupMany serves all
// collected keys, one emit pass writes replies in frame order.
func (c *srvConn) serveLookups() {
	keyLen := c.srv.cfg.Table.KeyLen()
	// One map load covers the whole coalesced group: the ownership check and
	// the WRONG_SHARD epoch must come from the same map version. The group
	// is marked as probing before the load, so a cutover that installs a
	// new map after it waits for the probe before purging (waitProbes).
	c.probing.Add(1)
	m := c.srv.clusterMap()
	var selfID uint32
	if m != nil {
		selfID = c.srv.cl.selfID.Load()
	}
	c.keys = c.keys[:0]
	c.nkeys = c.nkeys[:0]
	c.statuses = c.statuses[:0]
	for range c.group {
		c.statuses = append(c.statuses, StatusOK)
	}
	statuses := c.statuses
	for i := range c.group {
		req := &c.group[i]
		before := len(c.keys)
		switch req.op {
		case OpLookup:
			if len(req.payload) != keyLen {
				statuses[i] = StatusErrKeyLen
			} else {
				c.keys = append(c.keys, req.payload)
			}
		case OpLookupMany:
			c.keys, statuses[i] = parseLookupManyReq(req.payload, keyLen, c.keys)
			if statuses[i] != StatusOK {
				c.keys = c.keys[:before] // drop any partially collected keys
			}
		}
		if m != nil && statuses[i] == StatusOK {
			// Whole-frame ownership: the router builds per-node sub-batches,
			// so a frame mixing owned and unowned keys means a stale map —
			// redirect the frame and let the router re-route everything.
			for _, k := range c.keys[before:] {
				if uint32(m.Owner(KeyHash(k))) != selfID {
					statuses[i] = StatusErrWrongShard
					c.keys = c.keys[:before]
					break
				}
			}
		}
		c.nkeys = append(c.nkeys, len(c.keys)-before)
	}

	total := len(c.keys)
	if cap(c.results) < total {
		c.results = make([]flowserve.Result, total)
	}
	c.results = c.results[:total]
	if total > 0 {
		c.batch.LookupMany(c.keys, c.results)
	}
	c.probing.Add(1)
	c.srv.c.coalesceCalls.Add(1)
	c.srv.c.coalesceFrames.Add(uint64(len(c.group)))
	c.srv.c.coalesceKeys.Add(uint64(total))

	off := 0
	for i := range c.group {
		req := &c.group[i]
		n := c.nkeys[i]
		res := c.results[off : off+n]
		off += n
		if statuses[i] != StatusOK {
			if statuses[i] == StatusErrWrongShard {
				c.srv.cl.c.wrongShard.Add(1)
				c.replyWrongShard(req.op, req.reqID, m.Epoch)
				continue
			}
			c.reply(&Frame{Op: req.op, Status: statuses[i], ReqID: req.reqID})
			continue
		}
		// Reply frames are built header-then-payload straight into a pooled
		// buffer: no intermediate payload slice, no per-reply make.
		switch req.op {
		case OpLookup:
			fb := getFrameBuf()
			fb.b = AppendFrameHeader(fb.b[:0], OpLookup, StatusOK, req.reqID, 9)
			ok := byte(0)
			if res[0].OK {
				ok = 1
			}
			fb.b = append(fb.b, ok)
			fb.b = binary.LittleEndian.AppendUint64(fb.b, res[0].Value)
			c.send(fb)
		case OpLookupMany:
			fb := getFrameBuf()
			fb.b = AppendFrameHeader(fb.b[:0], OpLookupMany, StatusOK, req.reqID, 4+9*n)
			fb.b = appendLookupManyReply(fb.b, res)
			c.send(fb)
		}
	}
}

// serveOne answers a non-lookup request.
func (c *srvConn) serveOne(req *request) {
	t := c.srv.cfg.Table
	keyLen := t.KeyLen()
	switch req.op {
	case OpHello:
		hi := HelloInfo{
			KeyLen:   keyLen,
			Shards:   t.Shards(),
			Capacity: t.Capacity(),
			NodeID:   NoNode,
		}
		if cl := c.srv.cl; cl != nil {
			if m := cl.m.Load(); m != nil {
				hi.Epoch = m.Epoch
			}
			hi.NodeID = cl.selfID.Load()
		}
		payload := appendHelloReply(make([]byte, 0, 28), hi)
		c.reply(&Frame{Op: OpHello, ReqID: req.reqID, Payload: payload})
	case OpInsert, OpUpdate:
		if len(req.payload) < 8 {
			c.reply(&Frame{Op: req.op, Status: StatusErrMalformed, ReqID: req.reqID})
			return
		}
		value := binary.LittleEndian.Uint64(req.payload[:8])
		key := req.payload[8:]
		if len(key) != keyLen {
			c.reply(&Frame{Op: req.op, Status: StatusErrKeyLen, ReqID: req.reqID})
			return
		}
		st, found, epoch := c.srv.applyMutation(req.op, key, value)
		switch {
		case st == StatusErrWrongShard:
			c.replyWrongShard(req.op, req.reqID, epoch)
		case req.op == OpInsert:
			c.reply(&Frame{Op: OpInsert, Status: st, ReqID: req.reqID})
		default:
			b := byte(0)
			if found {
				b = 1
			}
			c.reply(&Frame{Op: OpUpdate, ReqID: req.reqID, Payload: []byte{b}})
		}
	case OpDelete:
		if len(req.payload) != keyLen {
			c.reply(&Frame{Op: OpDelete, Status: StatusErrKeyLen, ReqID: req.reqID})
			return
		}
		st, found, epoch := c.srv.applyMutation(OpDelete, req.payload, 0)
		if st == StatusErrWrongShard {
			c.replyWrongShard(OpDelete, req.reqID, epoch)
			return
		}
		b := byte(0)
		if found {
			b = 1
		}
		c.reply(&Frame{Op: OpDelete, ReqID: req.reqID, Payload: []byte{b}})
	case OpStats:
		snap := stats.NewSnapshot()
		c.srv.CollectInto(snap)
		payload, err := json.Marshal(snap)
		if err != nil {
			c.reply(&Frame{Op: OpStats, Status: StatusErrInternal, ReqID: req.reqID})
			return
		}
		c.reply(&Frame{Op: OpStats, ReqID: req.reqID, Payload: payload})
	case OpShardMap:
		var payload []byte
		if m := c.srv.clusterMap(); m != nil {
			payload = AppendShardMap(nil, m)
		}
		c.reply(&Frame{Op: OpShardMap, ReqID: req.reqID, Payload: payload})
	case OpMapUpdate:
		c.reply(&Frame{Op: OpMapUpdate, Status: c.srv.handleMapUpdate(req.payload), ReqID: req.reqID})
	case OpMigStart:
		st := StatusErrMalformed
		if rg, dst, err := parseMigStartReq(req.payload); err == nil {
			st = c.srv.handleMigStart(rg, dst)
		}
		c.reply(&Frame{Op: OpMigStart, Status: st, ReqID: req.reqID})
	case OpMigStatus:
		cl := c.srv.cl
		if cl == nil {
			c.reply(&Frame{Op: OpMigStatus, Status: StatusErrCluster, ReqID: req.reqID})
			return
		}
		mi := cl.migInfo()
		c.reply(&Frame{Op: OpMigStatus, ReqID: req.reqID, Payload: appendMigInfo(nil, &mi)})
	case OpMigApply:
		recs, err := parseMigRecords(req.payload, nil)
		if err != nil {
			c.reply(&Frame{Op: OpMigApply, Status: StatusErrMalformed, ReqID: req.reqID})
			return
		}
		processed, conflicts, st := c.srv.applyMigRecords(recs)
		if st != StatusOK {
			c.reply(&Frame{Op: OpMigApply, Status: st, ReqID: req.reqID})
			return
		}
		var payload [8]byte
		binary.LittleEndian.PutUint32(payload[0:4], processed)
		binary.LittleEndian.PutUint32(payload[4:8], conflicts)
		c.reply(&Frame{Op: OpMigApply, ReqID: req.reqID, Payload: payload[:]})
	}
}

// replyWrongShard emits the WRONG_SHARD redirect carrying the node's map
// epoch — the one error reply with a payload.
func (c *srvConn) replyWrongShard(op Op, reqID uint64, epoch uint64) {
	fb := getFrameBuf()
	fb.b = AppendFrameHeader(fb.b[:0], op, StatusErrWrongShard, reqID, 8)
	fb.b = appendWrongShard(fb.b, epoch)
	c.send(fb)
}

// reply encodes a frame into a pooled buffer and hands it to the writer.
func (c *srvConn) reply(f *Frame) {
	fb := getFrameBuf()
	fb.b = AppendFrame(fb.b[:0], f)
	c.send(fb)
}

// send hands an already-encoded pooled frame to the writer, which releases
// it after the bytes reach the bufio writer.
func (c *srvConn) send(fb *frameBuf) {
	c.repCh <- fb
}

// write flushes encoded replies, batching the flush across whatever is
// queued, and returns each pooled buffer once its bytes are in the bufio
// writer. On a write error the remaining replies are discarded (the client
// is gone) but the channel is still drained so the processor never blocks.
func (c *srvConn) write() {
	failed := false
	flushPending := false
	flush := func() {
		if !flushPending || failed {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if err := c.bw.Flush(); err != nil {
			failed = true
			c.srv.c.writeErrors.Add(1)
			c.nc.Close() // unblock the reader
		}
		flushPending = false
	}
	writeOne := func(fb *frameBuf) {
		defer putFrameBuf(fb)
		if failed {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if _, err := c.bw.Write(fb.b); err != nil {
			failed = true
			c.srv.c.writeErrors.Add(1)
			c.nc.Close()
			return
		}
		flushPending = true
		c.srv.c.repliesWritten.Add(1)
	}
	for fb := range c.repCh {
		writeOne(fb)
		// Opportunistically drain queued replies into the same flush.
	inner:
		for {
			select {
			case more, ok := <-c.repCh:
				if !ok {
					flush()
					return
				}
				writeOne(more)
			default:
				break inner
			}
		}
		flush()
	}
	flush()
}

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"halo/internal/packet"
)

// A calibrator is a fixed reference kernel that a run times between its
// set-ups and between its load segments, on as many goroutines as the
// load. It is the benchmark's own code, on its own synthetic keys, and
// calls nothing of the program under test, so a program change cannot move
// it; a shared host that slows the program — other tenants on the sibling
// hyperthread, in the LLC, on the memory bus, or stealing the vCPU — slows
// it too. Each set-up time and each segment's timing metrics are scaled by
// how far the calibrator ran from its nominal speed in the slices around
// them, which cancels the host's drift (see README.md).
type calibrator interface {
	// name says what the kernel does, for the printed output.
	name() string
	// nominalNs is the kernel's cost per op, in ns, on the reference
	// host the timing metrics are scaled to.
	nominalNs() float64
	// run does ops on goroutine g until the run clock reaches endNs and
	// returns how many it did.
	run(g int, endNs int64) uint64
	close() error
}

// calibSample is one calibration slice: wall and process CPU ns per op.
// On one P both read the same on an idle host.
type calibSample struct{ wallNs, cpuNs float64 }

// calibrate runs c on loadGoros goroutines for dur.
func calibrate(c calibrator, dur time.Duration) calibSample {
	rt0 := readRuntime()
	start := now()
	end := start + int64(dur)
	ops := make([]uint64, loadGoros)
	var wg sync.WaitGroup
	for g := range ops {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops[g] = c.run(g, end)
		}(g)
	}
	wg.Wait()
	wall := now() - start
	cpu := readRuntime().cpuNs - rt0.cpuNs
	var n uint64
	for _, o := range ops {
		n += o
	}
	return calibSample{
		wallNs: ratio(float64(wall), float64(n)),
		cpuNs:  ratio(float64(cpu), float64(n)),
	}
}

// newCalibrator returns the calibrator for workload sp: a socket echo for
// the cluster, which costs what the wire costs, and a bare table probe of
// as many keys as the workload's table, which costs what table misses cost.
func newCalibrator(sp spec) (calibrator, error) {
	if sp.cluster {
		return newSockEcho()
	}
	return newMemProbe(sp.flows), nil
}

// calibKeys returns n synthetic header keys, back to back.
func calibKeys(n int) []byte {
	keys := make([]byte, n*packet.HeaderKeyLen)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = byte(x)
	}
	return keys
}

// rng is one goroutine's xorshift state, on its own cache line.
type rng struct {
	x uint64
	_ [56]byte
}

// next returns a uniform index below n.
func (r *rng) next(n int) int {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return int((r.x >> 32) * uint64(n) >> 32)
}

// probeHash is memprobe's key hash: FNV-1a with a 64-bit finaliser, the
// benchmark's own, so a change to the program's hash functions moves only
// the program.
func probeHash(key []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// memProbe is the reference for a table past the cache: a bare two-choice
// table of synthetic keys — 8-entry buckets of signature and slot, then the
// key and value words — with four shared counter lines that both
// goroutines bump per batch, the way sharded tables count. For each key of
// a 16-key batch, drawn uniformly, it hashes the key, scans its buckets,
// reads and compares the key words of a signature match, and sums the
// value. It has no seqlock, no resize and no pooling: it costs what the
// memory and the hashing cost.
type memProbe struct {
	n       int
	keys    []byte
	buckets []uint64 // 8 per bucket: slot<<16 | signature, 0 when empty
	kv      []uint64 // per slot: 2 key words, then the value
	mask    uint64   // bucket count - 1
	rngs    [loadGoros]rng
	counts  [4]struct {
		n atomic.Uint64
		_ [56]byte // one cache line per counter
	}
	sink [loadGoros]struct {
		v uint64
		_ [56]byte
	}
}

const probeWidth = 8 // entries per memProbe bucket

func newMemProbe(n int) *memProbe {
	nb := uint64(2)
	for nb*probeWidth < 2*uint64(n) {
		nb <<= 1
	}
	m := &memProbe{n: n, keys: calibKeys(n), buckets: make([]uint64, nb*probeWidth), kv: make([]uint64, 3*n), mask: nb - 1}
	for g := range m.rngs {
		m.rngs[g].x = uint64(g+1) * 0xc2b2ae3d27d4eb4f
	}
	for i := 0; i < n; i++ {
		k := m.key(i)
		h := probeHash(k)
		w0, w1 := keyWords(k)
		m.kv[3*i], m.kv[3*i+1], m.kv[3*i+2] = w0, w1, uint64(i)+1
	place:
		for _, b := range [2]uint64{h & m.mask, h >> 32 & m.mask} {
			for e := b * probeWidth; e < (b+1)*probeWidth; e++ {
				if m.buckets[e] == 0 {
					m.buckets[e] = uint64(i)<<16 | probeSig(h)
					break place
				}
			}
		} // a key whose buckets are both full is left out: its probe misses
	}
	return m
}

func (m *memProbe) key(i int) []byte {
	return m.keys[i*packet.HeaderKeyLen : (i+1)*packet.HeaderKeyLen]
}

// probeSig is a key's 16-bit signature, never 0.
func probeSig(h uint64) uint64 { return h>>48 | 1 }

// keyWords packs a header key into two words.
func keyWords(k []byte) (uint64, uint64) {
	var b [16]byte
	copy(b[:], k)
	return binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:])
}

func (m *memProbe) name() string { return "memprobe" }

// nominalNs defines the reference host for memprobe: 350 ns per key.
func (m *memProbe) nominalNs() float64 { return 350 }

func (m *memProbe) run(g int, endNs int64) uint64 {
	r := &m.rngs[g]
	var ops, sink uint64
	for now() < endNs {
		var perShard [4]uint64
		for j := 0; j < batchKeys; j++ {
			k := m.key(r.next(m.n))
			h := probeHash(k)
			perShard[h>>62]++
			sink += m.probe(k, h)
		}
		for s, n := range perShard {
			if n > 0 {
				m.counts[s].n.Add(n)
			}
		}
		ops += batchKeys
	}
	m.sink[g].v += sink
	return ops
}

// probe returns the value of key k with hash h, or 0 when it is absent.
func (m *memProbe) probe(k []byte, h uint64) uint64 {
	w0, w1 := keyWords(k)
	sig := probeSig(h)
	for _, b := range [2]uint64{h & m.mask, h >> 32 & m.mask} {
		for _, ent := range m.buckets[b*probeWidth : (b+1)*probeWidth] {
			if ent&0xffff != sig {
				continue
			}
			kv := m.kv[3*(ent>>16):]
			if kv[0] == w0 && kv[1] == w1 {
				return kv[2]
			}
		}
	}
	return 0
}

func (m *memProbe) close() error { return nil }

// sockEcho is the reference for a served workload: each goroutine sends 16
// synthetic keys as one frame over its own unix socket pair to an echo
// goroutine, reads the echo back and checks it, through the same runtime
// netpoller the program's connections use.
type sockEcho struct {
	keys   []byte
	rngs   [loadGoros]rng
	conns  [loadGoros]net.Conn // the load side of each pair
	echoes [loadGoros]net.Conn // the echo side
	done   sync.WaitGroup
	errs   [loadGoros]error
}

const (
	echoFrame = 8 + batchKeys*packet.HeaderKeyLen // sequence number and the keys
	echoKeys  = 4096                              // synthetic keys the frames draw from
)

func newSockEcho() (*sockEcho, error) {
	s := &sockEcho{keys: calibKeys(echoKeys)}
	for g := 0; g < loadGoros; g++ {
		s.rngs[g].x = uint64(g+1) * 0xc2b2ae3d27d4eb4f
		a, b, err := socketPair()
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns[g], s.echoes[g] = a, b
		s.done.Add(1)
		go s.echo(g)
	}
	return s, nil
}

// socketPair returns both ends of a connected unix stream socket pair,
// registered with the netpoller.
func socketPair() (net.Conn, net.Conn, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("socketpair: %w", err)
	}
	var cs [2]net.Conn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "calib")
		c, err := net.FileConn(f) // dups fd
		f.Close()
		if err != nil {
			if i == 1 {
				cs[0].Close()
			} else {
				syscall.Close(fds[1])
			}
			return nil, nil, fmt.Errorf("socketpair conn: %w", err)
		}
		cs[i] = c
	}
	return cs[0], cs[1], nil
}

// echo writes back every frame until its connection closes.
func (s *sockEcho) echo(g int) {
	defer s.done.Done()
	buf := make([]byte, echoFrame)
	c := s.echoes[g]
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.errs[g] = fmt.Errorf("echo read: %w", err)
			}
			return
		}
		if _, err := c.Write(buf); err != nil {
			s.errs[g] = fmt.Errorf("echo write: %w", err)
			return
		}
	}
}

func (s *sockEcho) name() string { return "sockecho" }

// nominalNs defines the reference host for sockecho: 400 ns per key.
func (s *sockEcho) nominalNs() float64 { return 400 }

func (s *sockEcho) run(g int, endNs int64) uint64 {
	r, c := &s.rngs[g], s.conns[g]
	out := make([]byte, echoFrame)
	in := make([]byte, echoFrame)
	var ops uint64
	for seq := uint64(1); now() < endNs; seq++ {
		binary.LittleEndian.PutUint64(out, seq)
		for j := 0; j < batchKeys; j++ {
			i := r.next(echoKeys) * packet.HeaderKeyLen
			copy(out[8+packet.HeaderKeyLen*j:], s.keys[i:i+packet.HeaderKeyLen])
		}
		if _, err := c.Write(out); err != nil {
			s.errs[g] = fmt.Errorf("calib write: %w", err)
			break
		}
		if _, err := io.ReadFull(c, in); err != nil {
			s.errs[g] = fmt.Errorf("calib read: %w", err)
			break
		}
		if binary.LittleEndian.Uint64(in) != seq {
			s.errs[g] = fmt.Errorf("calib echo: frame %d came back as %d", seq, binary.LittleEndian.Uint64(in))
			break
		}
		ops += batchKeys
	}
	return ops
}

// close shuts every pair, waits for the echo goroutines and returns the
// first error any side saw.
func (s *sockEcho) close() error {
	for g := range s.conns {
		if s.conns[g] != nil {
			s.conns[g].Close()
		}
	}
	s.done.Wait()
	for g := range s.echoes {
		if s.echoes[g] != nil {
			s.echoes[g].Close()
		}
	}
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

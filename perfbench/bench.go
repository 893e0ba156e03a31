package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// Lap roles. Every workload's timed lap has three phases; each
// end-to-end metric family is named after the role its phase plays.
const (
	roleWrite = iota // mdtest create, ior-seq write, ckpt-r2 checkpoint write
	roleRead         // mdtest stat, ior-seq read, ckpt-r2 restart read
	roleDrain        // mdtest remove, ior-seq neighbour read, ckpt-r2 snapshot read
	nRoles
)

var roleNames = [nRoles]string{"write", "read", "drain"}

// phaseSample is one phase of one lap.
type phaseSample struct {
	start, end time.Time
	ops        int
}

func (p phaseSample) rate() float64 { return float64(p.ops) / p.end.Sub(p.start).Seconds() }

// bench is one run's state: the mounted client, the closed-loop
// workers' per-phase samples and the result counters.
type bench struct {
	cl      *cluster
	c       *client.Client
	seed    uint64
	workers int
	sz      sizes
	pat     *pattern
	tr      *tracer // nil when untraced

	// lat[w] collects worker w's role-call latencies (µs) for the phase
	// in progress. Only worker w's goroutine touches it during the phase.
	lat    [][]float64
	phases [nRoles][]phaseSample
	allLat [nRoles][]float64

	attempted, failed atomic.Int64
	userWritten       atomic.Int64 // user bytes written by role calls
	userRead          atomic.Int64 // user bytes read by role calls

	// pins are ckpt-r2's snapshot epochs, one per data epoch.
	pins []uint64

	// digest, when non-nil, absorbs every call's outcome (errors, bytes
	// read, stat results) so two runs can be compared for equality.
	digestMu sync.Mutex
	digest   hash.Hash
}

func newBench(cl *cluster, seed uint64, workers int, sz sizes, tr *tracer) *bench {
	return &bench{
		cl:      cl,
		c:       cl.client,
		seed:    seed,
		workers: workers,
		sz:      sz,
		pat:     newPattern(seed),
		tr:      tr,
		lat:     make([][]float64, workers),
	}
}

// call runs one client call on worker w's behalf against worker
// target's file, counts it, and — for calls of the phase's role
// (role=true) — records its latency. The call's own error is returned;
// it has already been counted as failed. Worker -1 is the coordinator.
func (b *bench) call(w, target int, op facadeOp, role bool, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
	}
	if role {
		b.lat[w] = append(b.lat[w], float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	if b.tr != nil {
		b.tr.addCall(op, int8(target), t0, t1)
	}
	b.absorb(op.String(), errString(err))
	return err
}

// absorb feeds outcome fields into the digest when one is kept.
func (b *bench) absorb(parts ...string) {
	if b.digest == nil {
		return
	}
	b.digestMu.Lock()
	defer b.digestMu.Unlock()
	for _, p := range parts {
		fmt.Fprintf(b.digest, "%d:%s;", len(p), p)
	}
}

func (b *bench) absorbBytes(p []byte) {
	if b.digest == nil {
		return
	}
	sum := sha256.Sum256(p)
	b.absorb(string(sum[:]))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// phase runs fn on every worker concurrently (each worker closed-loop),
// then coord, if non-nil, on the calling goroutine, and records the wall
// time of the whole as one phase of role. A non-nil error is a wrong
// result and ends the run.
func (b *bench) phase(role int, fn func(w int) error, coord func() error) error {
	for w := range b.lat {
		b.lat[w] = b.lat[w][:0]
	}
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	var cerr error
	if coord != nil {
		cerr = coord()
	}
	end := time.Now()
	ops := 0
	for w, l := range b.lat {
		if errs[w] != nil {
			return fmt.Errorf("%s phase, worker %d: %w", roleNames[role], w, errs[w])
		}
		ops += len(l)
		b.allLat[role] = append(b.allLat[role], l...)
	}
	if cerr != nil {
		return fmt.Errorf("%s phase: %w", roleNames[role], cerr)
	}
	b.phases[role] = append(b.phases[role], phaseSample{start: start, end: end, ops: ops})
	return nil
}

// timedSeconds is the summed wall time of every recorded phase.
func (b *bench) timedSeconds() float64 {
	var s float64
	for _, ps := range b.phases {
		for _, p := range ps {
			s += p.end.Sub(p.start).Seconds()
		}
	}
	return s
}

// roleOps is the number of role calls across every recorded phase.
func (b *bench) roleOps() int {
	n := 0
	for _, ps := range b.phases {
		for _, p := range ps {
			n += p.ops
		}
	}
	return n
}

// shuffled returns 0..n-1 in an order seeded by the run seed and key.
func (b *bench) shuffled(n int, key uint64) []int {
	r := rand.New(rand.NewPCG(b.seed, key))
	return r.Perm(n)
}

// pattern generates and checks the seeded file contents. Transfer t of
// worker w's file at data epoch e is a rotation of one seeded random
// block; the rotation differs between consecutive epochs, so a stale
// transfer never passes the check.
type pattern struct {
	seed uint64
	blk  []byte
}

// patternBlock is the rotated block's length: above the largest transfer
// and not a power of two, so rotations never line up with chunk bounds.
const patternBlock = 1<<20 + 4099

func newPattern(seed uint64) *pattern {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	blk := make([]byte, patternBlock)
	for i := 0; i+8 <= len(blk); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			blk[i+j] = byte(v >> (8 * j))
		}
	}
	return &pattern{seed: seed, blk: blk}
}

func (p *pattern) rot(w, epoch, t int) int {
	h := splitmix(p.seed ^ uint64(w)<<48 ^ uint64(t)<<8)
	return int((h%patternBlock + uint64(epoch)*104729) % patternBlock)
}

// fill writes transfer t of worker w's file at epoch into dst.
func (p *pattern) fill(dst []byte, w, epoch, t int) {
	r := p.rot(w, epoch, t)
	n := copy(dst, p.blk[r:])
	copy(dst[n:], p.blk)
}

// check reports whether got holds transfer t of worker w's file at epoch.
func (p *pattern) check(got []byte, w, epoch, t int) bool {
	r := p.rot(w, epoch, t)
	n := min(len(got), len(p.blk)-r)
	return bytes.Equal(got[:n], p.blk[r:r+n]) && bytes.Equal(got[n:], p.blk[:len(got)-n])
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(len(sorted)-1, i))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

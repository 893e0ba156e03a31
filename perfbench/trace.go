package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// The traced run records one span per call at each layer boundary, from
// this package alone: the benchmark's own client calls, the client's
// RPCs (a wrapper around each rpc.Conn), the daemons' dispatch (a proxy
// rpc.Server in front of daemon.Server) and node-local storage (a vfs.FS
// wrapper). Spans stay in memory and are written out when the run ends.

type spanKind uint8

const (
	kindCall   spanKind = iota // a benchmark call into the client library
	kindRPC                    // one client RPC, round trip
	kindHandle                 // one daemon dispatch, queue wait included
	kindVFS                    // one node-local storage call
)

var kindNames = [...]string{"call", "rpc", "handle", "vfs"}

// facadeOp names a benchmark call into the client library.
type facadeOp uint8

const (
	opCreate facadeOp = iota
	opStat
	opRemove
	opWrite
	opRead
	opSnapRead
	opOpen
	opClose
	opFsync
	opSnapshot
	opDrop
	opList
	opReadDir
	nFacadeOps
)

// nFamilies counts the ops, opCreate through opSnapRead, whose per-call
// costs the per-layer metrics break down.
const nFamilies = int(opSnapRead) + 1

var facadeNames = [nFacadeOps]string{"create", "stat", "remove", "write", "read", "snap_read",
	"open", "close", "fsync", "snapshot", "snapshot_drop", "snapshot_list", "readdir"}

func (o facadeOp) String() string { return facadeNames[o] }

type vfsOp uint8

const (
	vfsCreate vfsOp = iota
	vfsOpen
	vfsOpenOrCreate
	vfsRemove
	vfsRename
	vfsList
	vfsMkdir
	vfsExists
	vfsRead
	vfsWrite
	vfsAppend
	vfsSize
	vfsSync
	vfsClose
)

var vfsNames = [...]string{"create", "open", "open_or_create", "remove", "rename", "list",
	"mkdir", "exists", "read", "write", "append", "size", "sync", "close"}

// Storage classes, by the daemon's vfs prefixes.
const (
	classMeta   uint8 = iota // meta/: the kvstore's WAL and SSTables
	classChunks              // chunks/: live chunk files
	classSnap                // snap/: copy-on-write pre-images
	classOther
)

var classNames = [...]string{"meta", "chunks", "snap", "other"}

func classOf(name string) uint8 {
	switch {
	case strings.HasPrefix(name, "meta/"):
		return classMeta
	case strings.HasPrefix(name, "chunks/"):
		return classChunks
	case strings.HasPrefix(name, "snap/"):
		return classSnap
	}
	return classOther
}

func isSST(name string) bool { return strings.HasSuffix(name, ".sst") }

func isWAL(name string) bool { return strings.HasSuffix(name, ".log") }

// span is one recorded interval. Times are nanoseconds since the
// tracer's base.
type span struct {
	start, end int64
	bytes      int64
	kind       spanKind
	op         uint8 // facadeOp, rpc.Op or vfsOp by kind
	class      uint8 // storage class of a vfs span
	node       int8  // daemon; -1 for benchmark calls
	owner      int8  // worker whose file the span touches; -1 if none
	sst, wal   bool  // vfs span on an SSTable / a WAL file
}

func (s *span) dur() int64 { return s.end - s.start }

const traceShards = 16

// tracer collects spans while on. Recording is sharded to keep the two
// workers and the daemons' handlers off one lock.
type tracer struct {
	base     time.Time
	on       atomic.Bool
	inflight atomic.Int64 // traced RPCs not yet returned
	next     atomic.Uint32
	mu       [traceShards]sync.Mutex
	spans    [traceShards][]span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	i := t.next.Add(1) % traceShards
	t.mu[i].Lock()
	t.spans[i] = append(t.spans[i], s)
	t.mu[i].Unlock()
}

func (t *tracer) addCall(op facadeOp, owner int8, t0, t1 time.Time) {
	t.add(span{start: int64(t0.Sub(t.base)), end: int64(t1.Sub(t.base)), kind: kindCall,
		op: uint8(op), node: -1, owner: owner})
}

// collect waits for traced RPCs still in flight (read-ahead may leave
// some behind the last call), stops recording and returns every span,
// grouped by kind.
func (t *tracer) collect() ([4][]span, error) {
	var out [4][]span
	for deadline := time.Now().Add(5 * time.Second); t.inflight.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return out, fmt.Errorf("traced run: %d RPCs still in flight after the last call", t.inflight.Load())
		}
	}
	t.on.Store(false)
	for i := range t.spans {
		t.mu[i].Lock()
		for _, s := range t.spans[i] {
			out[s.kind] = append(out[s.kind], s)
		}
		t.spans[i] = nil
		t.mu[i].Unlock()
	}
	return out, nil
}

// writeSpans writes spans as tab-separated lines into dir/name.
func writeSpans(dir, name string, spans [4][]span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\top\tnode\towner\tclass\tstart_ns\tend_ns\tbytes")
	for k, ss := range spans {
		for _, s := range ss {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%d\t%d\t%d\n", kindNames[k], spanOpName(&s),
				s.node, s.owner, classNames[s.class], s.start, s.end, s.bytes)
		}
	}
	return w.Flush()
}

func spanOpName(s *span) string {
	switch s.kind {
	case kindCall:
		return facadeOp(s.op).String()
	case kindVFS:
		return vfsNames[s.op]
	}
	return proto.OpName(rpc.Op(s.op))
}

// ownerOf returns the worker index a GekkoFS path (plain, or escaped in
// a chunk or pre-image file name) belongs to, or -1. Worker files are
// named ".../w<digit>...".
func ownerOf(s string) int8 {
	i := strings.LastIndex(s, "/w")
	if i >= 0 {
		i += 2
	}
	if j := strings.LastIndex(s, "#2fw"); j >= 0 && j+4 > i {
		i = j + 4
	}
	if i < 0 || i >= len(s) || s[i] < '0' || s[i] > '9' {
		return -1
	}
	return int8(s[i] - '0')
}

// pathFirst reports whether op's request payload starts with the path.
func pathFirst(op rpc.Op) bool {
	switch op {
	case proto.OpCreate, proto.OpStat, proto.OpRemoveMeta, proto.OpUpdateSize,
		proto.OpWriteChunks, proto.OpReadChunks, proto.OpRemoveChunks, proto.OpTruncateChunks:
		return true
	}
	return false
}

func payloadOwner(op rpc.Op, payload []byte) int8 {
	if !pathFirst(op) {
		return -1
	}
	return ownerOf(rpc.NewDec(payload).Str())
}

// tracedConn times every RPC the client issues on one connection.
type tracedConn struct {
	conn rpc.Conn
	t    *tracer
	node int8
}

func (c *tracedConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	return c.CallTrace(op, payload, bulk, dir, rpc.Trace{})
}

func (c *tracedConn) CallTrace(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	if !c.t.on.Load() {
		return rpc.CallTrace(c.conn, op, payload, bulk, dir, tr)
	}
	owner := payloadOwner(op, payload)
	c.t.inflight.Add(1)
	defer c.t.inflight.Add(-1)
	start := c.t.now()
	resp, err := rpc.CallTrace(c.conn, op, payload, bulk, dir, tr)
	end := c.t.now()
	var n int64
	if dir != rpc.BulkNone {
		n = int64(len(bulk))
	}
	c.t.add(span{start: start, end: end, bytes: n, kind: kindRPC, op: uint8(op), node: c.node, owner: owner})
	return resp, err
}

func (c *tracedConn) Close() error { return c.conn.Close() }

// proxyServer returns an rpc.Server that serves every protocol op by
// timing inner's Dispatch. Its own handler pool is wide enough never to
// queue, so queueing happens in the daemon's pool as it would untraced.
func proxyServer(inner *rpc.Server, t *tracer, node int8) *rpc.Server {
	srv := rpc.NewServer(1 << 12)
	for op := proto.OpPing; op <= proto.OpSnapshotDrop; op++ {
		srv.Register(op, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
			if !t.on.Load() {
				return inner.Dispatch(op, req, bulk)
			}
			owner := payloadOwner(op, req)
			start := t.now()
			resp, err := inner.Dispatch(op, req, bulk)
			t.add(span{start: start, end: t.now(), kind: kindHandle, op: uint8(op), node: node, owner: owner})
			return resp, err
		})
	}
	return srv
}

// tracedFS times every node-local storage call of one daemon.
type tracedFS struct {
	fs   vfs.FS
	t    *tracer
	node int8
}

func (f *tracedFS) rec(op vfsOp, name string, start int64, n int) {
	if !f.t.on.Load() {
		return
	}
	f.t.add(span{start: start, end: f.t.now(), bytes: int64(n), kind: kindVFS, op: uint8(op),
		class: classOf(name), node: f.node, owner: ownerOf(name), sst: isSST(name), wal: isWAL(name)})
}

func (f *tracedFS) open(op vfsOp, name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	start := f.t.now()
	file, err := open(name)
	f.rec(op, name, start, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{f: file, fs: f, name: name}, nil
}

func (f *tracedFS) Create(name string) (vfs.File, error) {
	return f.open(vfsCreate, name, f.fs.Create)
}

func (f *tracedFS) Open(name string) (vfs.File, error) { return f.open(vfsOpen, name, f.fs.Open) }

func (f *tracedFS) OpenOrCreate(name string) (vfs.File, error) {
	return f.open(vfsOpenOrCreate, name, f.fs.OpenOrCreate)
}

func (f *tracedFS) Remove(name string) error {
	start := f.t.now()
	err := f.fs.Remove(name)
	f.rec(vfsRemove, name, start, 0)
	return err
}

func (f *tracedFS) Rename(oldname, newname string) error {
	start := f.t.now()
	err := f.fs.Rename(oldname, newname)
	f.rec(vfsRename, newname, start, 0)
	return err
}

func (f *tracedFS) List(dir string) ([]string, error) {
	start := f.t.now()
	names, err := f.fs.List(dir)
	f.rec(vfsList, dir+"/", start, 0)
	return names, err
}

func (f *tracedFS) MkdirAll(dir string) error {
	start := f.t.now()
	err := f.fs.MkdirAll(dir)
	f.rec(vfsMkdir, dir+"/", start, 0)
	return err
}

func (f *tracedFS) Exists(name string) bool {
	start := f.t.now()
	ok := f.fs.Exists(name)
	f.rec(vfsExists, name, start, 0)
	return ok
}

type tracedFile struct {
	f    vfs.File
	fs   *tracedFS
	name string
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.fs.t.now()
	n, err := f.f.ReadAt(p, off)
	f.fs.rec(vfsRead, f.name, start, n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.fs.t.now()
	n, err := f.f.WriteAt(p, off)
	f.fs.rec(vfsWrite, f.name, start, n)
	return n, err
}

func (f *tracedFile) Append(p []byte) (int64, error) {
	start := f.fs.t.now()
	off, err := f.f.Append(p)
	f.fs.rec(vfsAppend, f.name, start, len(p))
	return off, err
}

func (f *tracedFile) Size() (int64, error) {
	start := f.fs.t.now()
	n, err := f.f.Size()
	f.fs.rec(vfsSize, f.name, start, 0)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.fs.t.now()
	err := f.f.Sync()
	f.fs.rec(vfsSync, f.name, start, 0)
	return err
}

func (f *tracedFile) Close() error {
	start := f.fs.t.now()
	err := f.f.Close()
	f.fs.rec(vfsClose, f.name, start, 0)
	return err
}

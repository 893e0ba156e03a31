package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// Fixed deployment shape shared by every workload.
const (
	nDaemons  = 2
	chunkSize = meta.DefaultChunkSize // 512 KiB, the paper's default
)

// clientConfig is the per-workload part of the mount.
type clientConfig struct {
	replicas    int
	asyncWrites bool
	readAhead   bool
	cacheBytes  int64
}

// cluster is two daemons behind loopback TCP listeners in this process
// and one client mounted over them, one connection per daemon.
type cluster struct {
	client    *client.Client
	daemons   []*daemon.Daemon
	mems      []*vfs.Mem
	listeners []net.Listener
	conns     []rpc.Conn
	serving   sync.WaitGroup
}

// startCluster brings the cluster up and mounts the client (VerifyProtocol
// included). With a non-nil tracer every layer boundary is wrapped: the
// client's connections, the daemons' dispatch (a proxy rpc.Server in front
// of daemon.Server) and the daemons' node-local storage.
func startCluster(cc clientConfig, tr *tracer) (cl *cluster, err error) {
	cl = &cluster{}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	for i := 0; i < nDaemons; i++ {
		mem := vfs.NewMem()
		var fs vfs.FS = mem
		if tr != nil {
			fs = &tracedFS{fs: mem, t: tr, node: int8(i)}
		}
		d, err := daemon.New(daemon.Config{ID: i, FS: fs, ChunkSize: chunkSize, SyncWAL: true})
		if err != nil {
			return cl, fmt.Errorf("daemon %d: %w", i, err)
		}
		cl.mems = append(cl.mems, mem)
		cl.daemons = append(cl.daemons, d)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cl, fmt.Errorf("listen: %w", err)
		}
		cl.listeners = append(cl.listeners, l)
		srv := d.Server()
		if tr != nil {
			srv = proxyServer(srv, tr, int8(i))
		}
		cl.serving.Add(1)
		go func() {
			defer cl.serving.Done()
			_ = transport.ServeTCP(l, srv) // returns net.ErrClosed on close
		}()
		conn, err := transport.DialTCP(l.Addr().String(), 30*time.Second)
		if err != nil {
			return cl, fmt.Errorf("dial daemon %d: %w", i, err)
		}
		cl.conns = append(cl.conns, conn)
	}
	conns := cl.conns
	if tr != nil {
		conns = make([]rpc.Conn, len(cl.conns))
		for i, c := range cl.conns {
			conns[i] = &tracedConn{conn: c, t: tr, node: int8(i)}
		}
	}
	cl.client, err = client.New(client.Config{
		Conns:       conns,
		ChunkSize:   chunkSize,
		Replicas:    cc.replicas,
		AsyncWrites: cc.asyncWrites,
		ReadAhead:   cc.readAhead,
		CacheBytes:  cc.cacheBytes,
	})
	if err != nil {
		return cl, fmt.Errorf("mount: %w", err)
	}
	if err := cl.client.VerifyProtocol(); err != nil {
		return cl, fmt.Errorf("mount: %w", err)
	}
	if err := cl.client.EnsureRoot(); err != nil {
		return cl, fmt.Errorf("mount: %w", err)
	}
	return cl, nil
}

// close tears the cluster down: client connections first, then the
// listeners (waiting for their accept loops), then the daemons.
func (cl *cluster) close() error {
	var errs []error
	for _, c := range cl.conns {
		errs = append(errs, c.Close())
	}
	for _, l := range cl.listeners {
		_ = l.Close() // the accept loop reports the close as net.ErrClosed
	}
	cl.serving.Wait()
	for _, d := range cl.daemons {
		errs = append(errs, d.Close())
	}
	return errors.Join(errs...)
}

// storedChunkBytes is the bytes every daemon's chunk store holds, live
// chunks and snapshot pre-images together: everything outside meta/.
func (cl *cluster) storedChunkBytes() (int64, error) {
	var total int64
	for _, m := range cl.mems {
		total += m.TotalBytes()
		names, err := m.List("meta")
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			f, err := m.Open("meta/" + n)
			if err != nil {
				return 0, err
			}
			sz, err := f.Size()
			if err != nil {
				return 0, err
			}
			total -= sz
		}
	}
	return total, nil
}

// waitFlushed waits until every daemon's kvstore has flushed a memtable
// to an SSTable and retired its write-ahead log, leaving one SSTable or
// more and one live WAL.
func (cl *cluster) waitFlushed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, m := range cl.mems {
		for {
			names, err := m.List("meta")
			if err != nil {
				return err
			}
			var ssts, wals int
			for _, n := range names {
				switch {
				case isSST(n):
					ssts++
				case isWAL(n):
					wals++
				}
			}
			if ssts > 0 && wals == 1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("daemon %d: memtable not flushed after %v (%d SSTables, %d WALs)", i, timeout, ssts, wals)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

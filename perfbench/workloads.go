package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
)

// sizes are the workloads' input sizes. fullSizes drive the benchmark;
// checkSizes drive the small wrapper-transparency run.
type sizes struct {
	resident   int   // mdtest: files staged in before timing
	requireSST bool  // mdtest: set-up must have flushed every memtable
	mdFiles    int   // mdtest: files per worker per lap
	iorFile    int   // ior-seq: bytes per worker file
	iorXfer    int   // ior-seq: transfer size
	iorPasses  int   // ior-seq: passes over the file per phase
	ckptFile   int   // ckpt-r2: bytes per worker checkpoint file
	ckptXfer   int   // ckpt-r2: transfer size
	cacheBytes int64 // ckpt-r2: client chunk cache
}

var fullSizes = sizes{
	// 120k records of ~100 B each put ~6 MiB into each daemon's kvstore,
	// past its 4 MiB memtable.
	resident:   120000,
	requireSST: true,
	mdFiles:    10000,
	iorFile:    64 << 20,
	iorXfer:    1 << 20,
	iorPasses:  4,
	// Two 64 MiB checkpoint files: 4x the 32 MiB client cache.
	ckptFile:   64 << 20,
	ckptXfer:   256 << 10,
	cacheBytes: 32 << 20,
}

var checkSizes = sizes{
	resident:   2000,
	mdFiles:    200,
	iorFile:    4 << 20,
	iorXfer:    1 << 20,
	iorPasses:  2,
	ckptFile:   4 << 20,
	ckptXfer:   256 << 10,
	cacheBytes: 1 << 20,
}

// workload is one benchmark input. prepare runs as part of set-up on a
// fresh cluster; lap runs one timed lap of three phases.
type workload struct {
	name       string
	phaseNames [nRoles]string
	mount      func(sz sizes) clientConfig
	prepare    func(b *bench) error
	lap        func(b *bench, lap int) error
	replicas   int
	fileBytes  func(sz sizes) int // bytes in each worker's file
	// lapsPerSecond converts --seconds into a lap count: about how many
	// laps a second holds on a 2-core x86-64 VM.
	lapsPerSecond float64
}

func syncMount(sizes) clientConfig { return clientConfig{} }

var workloads = map[string]*workload{
	"mdtest": {
		name: "mdtest", phaseNames: [nRoles]string{"create", "stat", "remove"},
		mount: syncMount, prepare: mdPrepare, lap: mdLap, replicas: 1,
		fileBytes: func(sizes) int { return 0 }, lapsPerSecond: 0.5,
	},
	"ior-seq": {
		name: "ior-seq", phaseNames: [nRoles]string{"write", "read", "neighbour read"},
		mount: syncMount, prepare: iorPrepare, lap: iorLap, replicas: 1,
		fileBytes: func(sz sizes) int { return sz.iorFile }, lapsPerSecond: 1,
	},
	"ckpt-r2": {
		name: "ckpt-r2", phaseNames: [nRoles]string{"checkpoint write", "restart read", "snapshot read"},
		mount: ckptMount, prepare: ckptPrepare, lap: ckptLap, replicas: 2,
		fileBytes: func(sz sizes) int { return sz.ckptFile }, lapsPerSecond: 2,
	},
}

var workloadOrder = []string{"mdtest", "ior-seq", "ckpt-r2"}

// ---- mdtest ----

const createBatch = 8192

func mdPrepare(b *bench) error {
	for _, d := range []string{"/mdtest", "/resident"} {
		if err := b.c.Mkdir(d); err != nil {
			return fmt.Errorf("mkdir %s: %w", d, err)
		}
	}
	batch := make([]string, 0, createBatch)
	for i := 0; i < b.sz.resident; i++ {
		batch = append(batch, fmt.Sprintf("/resident/r%07d", i))
		if len(batch) == createBatch || i == b.sz.resident-1 {
			if err := errors.Join(b.c.CreateMany(batch)...); err != nil {
				return fmt.Errorf("stage in resident namespace: %w", err)
			}
			batch = batch[:0]
		}
	}
	if !b.sz.requireSST {
		return nil
	}
	return b.cl.waitFlushed(10 * time.Second)
}

func mdLap(b *bench, lap int) error {
	names := make([][]string, b.workers)
	for w := range names {
		names[w] = make([]string, b.sz.mdFiles)
		for i := range names[w] {
			names[w][i] = fmt.Sprintf("/mdtest/w%d.l%d.f%06d", w, lap, i)
		}
	}
	c := b.c
	err := b.phase(roleWrite, func(w int) error {
		for _, p := range names[w] {
			_ = b.call(w, w, opCreate, true, func() error {
				fd, err := c.Open(p, client.O_RDWR|client.O_CREATE|client.O_EXCL)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	err = b.phase(roleRead, func(w int) error {
		for _, i := range b.shuffled(len(names[w]), uint64(lap)<<8|uint64(w)<<1) {
			var fi client.FileInfo
			err := b.call(w, w, opStat, true, func() (err error) {
				fi, err = c.Stat(names[w][i])
				return err
			})
			if err != nil {
				continue
			}
			b.absorb(fmt.Sprint(fi.Size(), fi.IsDir()))
			if fi.Size() != 0 || fi.IsDir() {
				return fmt.Errorf("stat %s: size %d dir %v, want an empty file", names[w][i], fi.Size(), fi.IsDir())
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	err = b.phase(roleDrain, func(w int) error {
		for _, i := range b.shuffled(len(names[w]), uint64(lap)<<8|uint64(w)<<1|1) {
			_ = b.call(w, w, opRemove, true, func() error { return c.Remove(names[w][i]) })
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	var ents []client.DirEntry
	if err := b.call(-1, -1, opReadDir, false, func() (err error) {
		ents, err = c.ReadDir("/mdtest")
		return err
	}); err == nil && len(ents) != 0 {
		return fmt.Errorf("readdir /mdtest after the remove phase: %d entries, want none", len(ents))
	}
	return nil
}

// ---- ior-seq ----

func iorPath(w int) string { return fmt.Sprintf("/ior/w%d", w) }

func iorPrepare(b *bench) error {
	if err := b.c.Mkdir("/ior"); err != nil {
		return err
	}
	return b.setupFiles(iorPath, b.sz.iorFile, b.sz.iorXfer)
}

// setupFiles creates every worker's file and writes data epoch 0 into it
// in xfer-byte transfers, so timed phases overwrite storage already sized.
func (b *bench) setupFiles(path func(int) string, size, xfer int) error {
	return b.each(func(w int) error {
		fd, err := b.c.Open(path(w), client.O_RDWR|client.O_CREATE|client.O_EXCL)
		if err != nil {
			return err
		}
		buf := make([]byte, xfer)
		for t := 0; t < size/xfer; t++ {
			b.pat.fill(buf, w, 0, t)
			if _, err := b.c.Write(fd, buf); err != nil {
				return err
			}
		}
		if err := b.c.Close(fd); err != nil {
			return err
		}
		fi, err := b.c.Stat(path(w))
		if err != nil {
			return err
		}
		if fi.Size() != int64(size) {
			return fmt.Errorf("set-up: %s has size %d, want %d", path(w), fi.Size(), size)
		}
		return nil
	})
}

// each runs f for every worker concurrently, untimed.
func (b *bench) each(f func(w int) error) error {
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = f(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// iorLap times iorPasses write passes over every worker's file (each an
// IOR iteration: open, 1 MiB transfers, Fsync, Close), then as many
// read passes over the own file and over the neighbour's.
func iorLap(b *bench, lap int) error {
	passes := b.sz.iorPasses
	epoch := (lap + 1) * passes // data epoch of the lap's last write pass
	c := b.c
	err := b.phase(roleWrite, func(w int) error {
		buf := make([]byte, b.sz.iorXfer)
		for p := passes - 1; p >= 0; p-- {
			var fd int
			if err := b.call(w, w, opOpen, false, func() (err error) {
				fd, err = c.Open(iorPath(w), client.O_RDWR)
				return err
			}); err != nil {
				continue
			}
			for t := 0; t < b.sz.iorFile/len(buf); t++ {
				b.pat.fill(buf, w, epoch-p, t)
				if b.call(w, w, opWrite, true, func() error {
					_, err := c.WriteAt(fd, buf, int64(t*len(buf)))
					return err
				}) == nil {
					b.userWritten.Add(int64(len(buf)))
				}
			}
			_ = b.call(w, w, opFsync, false, func() error { return c.Fsync(fd) })
			_ = b.call(w, w, opClose, false, func() error { return c.Close(fd) })
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	if err := b.phase(roleRead, func(w int) error {
		return b.readBack(w, w, epoch)
	}, nil); err != nil {
		return err
	}
	// IOR's reordered read-back (-C): each worker reads its neighbour's file.
	return b.phase(roleDrain, func(w int) error {
		return b.readBack(w, (w+1)%b.workers, epoch)
	}, nil)
}

// readBack reads worker owner's ior file sequentially iorPasses times on
// worker w's behalf and checks every byte against data epoch epoch.
func (b *bench) readBack(w, owner, epoch int) error {
	c := b.c
	buf := make([]byte, b.sz.iorXfer)
	for p := 0; p < b.sz.iorPasses; p++ {
		var fd int
		if err := b.call(w, owner, opOpen, false, func() (err error) {
			fd, err = c.Open(iorPath(owner), client.O_RDONLY)
			return err
		}); err != nil {
			continue
		}
		for t := 0; t < b.sz.iorFile/len(buf); t++ {
			if b.call(w, owner, opRead, true, func() error { return readFull(c.ReadAt(fd, buf, int64(t*len(buf)))) }) != nil {
				continue
			}
			if err := b.checkRead(buf, owner, epoch, t, iorPath(owner)); err != nil {
				return err
			}
		}
		_ = b.call(w, owner, opClose, false, func() error { return c.Close(fd) })
	}
	return nil
}

// readFull turns a read's (n, err) into an error: a full read ending at
// end of file is a success.
func readFull(n int, err error) error {
	if errors.Is(err, io.EOF) && n > 0 {
		return nil
	}
	return err
}

func (b *bench) checkRead(buf []byte, owner, epoch, t int, path string) error {
	b.userRead.Add(int64(len(buf)))
	b.absorbBytes(buf)
	if !b.pat.check(buf, owner, epoch, t) {
		return fmt.Errorf("read %s transfer %d: bytes differ from data epoch %d", path, t, epoch)
	}
	return nil
}

// ---- ckpt-r2 ----

func ckptPath(w int) string { return fmt.Sprintf("/ckpt/w%d", w) }

func ckptTag(epoch int) string { return fmt.Sprintf("ckpt-%d", epoch) }

func ckptMount(sz sizes) clientConfig {
	return clientConfig{replicas: 2, asyncWrites: true, readAhead: true, cacheBytes: sz.cacheBytes}
}

func ckptPrepare(b *bench) error {
	if err := b.c.Mkdir("/ckpt"); err != nil {
		return err
	}
	if err := b.setupFiles(ckptPath, b.sz.ckptFile, b.sz.ckptXfer); err != nil {
		return err
	}
	ep, err := b.c.Snapshot(ckptTag(0))
	if err != nil {
		return err
	}
	b.pins = []uint64{ep}
	return b.checkTags(0)
}

// checkTags requires the usable snapshot list to be exactly the tag of
// data epoch epoch.
func (b *bench) checkTags(epoch int) error {
	var tags []string
	if err := b.call(-1, -1, opList, false, func() error {
		ents, err := b.c.Snapshots()
		for _, e := range ents {
			tags = append(tags, e.Tag)
		}
		return err
	}); err != nil {
		return nil
	}
	b.absorb(tags...)
	if want := []string{ckptTag(epoch)}; !slices.Equal(tags, want) {
		return fmt.Errorf("snapshot list %q, want %q", tags, want)
	}
	return nil
}

func ckptLap(b *bench, lap int) error {
	epoch := lap + 1
	c := b.c
	xfers := b.sz.ckptFile / b.sz.ckptXfer
	err := b.phase(roleWrite, func(w int) error {
		var fd int
		if err := b.call(w, w, opOpen, false, func() (err error) {
			fd, err = c.Open(ckptPath(w), client.O_WRONLY)
			return err
		}); err != nil {
			return nil
		}
		buf := make([]byte, b.sz.ckptXfer)
		for t := 0; t < xfers; t++ {
			b.pat.fill(buf, w, epoch, t)
			if b.call(w, w, opWrite, true, func() error {
				_, err := c.Write(fd, buf)
				return err
			}) == nil {
				b.userWritten.Add(int64(len(buf)))
			}
		}
		_ = b.call(w, w, opClose, false, func() error { return c.Close(fd) })
		return nil
	}, func() error {
		var ep uint64
		if b.call(-1, -1, opSnapshot, false, func() (err error) {
			ep, err = c.Snapshot(ckptTag(epoch))
			return err
		}) == nil {
			b.pins = append(b.pins, ep)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Restart: read the checkpoint back through read-ahead.
	err = b.phase(roleRead, func(w int) error {
		var fd int
		if err := b.call(w, w, opOpen, false, func() (err error) {
			fd, err = c.Open(ckptPath(w), client.O_RDONLY)
			return err
		}); err != nil {
			return nil
		}
		buf := make([]byte, b.sz.ckptXfer)
		for t := 0; t < xfers; t++ {
			if b.call(w, w, opRead, true, func() error { return readFull(c.Read(fd, buf)) }) != nil {
				continue
			}
			if err := b.checkRead(buf, w, epoch, t, ckptPath(w)); err != nil {
				return err
			}
		}
		_ = b.call(w, w, opClose, false, func() error { return c.Close(fd) })
		return nil
	}, nil)
	if err != nil {
		return err
	}
	// Stage-out's read path: the previous epoch through its pin, then
	// drop the old tag.
	prev := b.pins[len(b.pins)-2]
	return b.phase(roleDrain, func(w int) error {
		buf := make([]byte, b.sz.ckptXfer)
		for t := 0; t < xfers; t++ {
			if b.call(w, w, opSnapRead, true, func() error {
				return readFull(c.ReadSnapshot(ckptPath(w), prev, buf, int64(t*len(buf))))
			}) != nil {
				continue
			}
			if err := b.checkRead(buf, w, epoch-1, t, ckptPath(w)+"@"+ckptTag(epoch-1)); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		_ = b.call(-1, -1, opDrop, false, func() error { return c.SnapshotDrop(ckptTag(epoch - 1)) })
		return b.checkTags(epoch)
	})
}

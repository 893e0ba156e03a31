package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// checkTransparency runs a small single-worker version of wl twice from
// the same seed, untraced and then through the traced wrappers, and
// requires both runs to return the same bytes and errors. The traced
// run's counts must also match exactly: RPCs sent equal dispatches
// served, and the chunk store writes R bytes per user byte (analyze
// enforces both).
func checkTransparency(wl *workload, seed uint64) error {
	var digests [2][]byte
	for i, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		d, err := transparencyRun(wl, seed, tr)
		if err != nil {
			return fmt.Errorf("transparency run (traced=%v): %w", traced, err)
		}
		digests[i] = d
	}
	if !bytes.Equal(digests[0], digests[1]) {
		return fmt.Errorf("transparency: the traced run returned different bytes or errors than the untraced one")
	}
	return nil
}

func transparencyRun(wl *workload, seed uint64, tr *tracer) (digest []byte, err error) {
	b, err := setUp(wl, options{seed: seed}, 1, checkSizes, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.cl.close(); err == nil {
			err = cerr
		}
	}()
	b.digest = sha256.New()
	if tr != nil {
		tr.on.Store(true)
	}
	for lap := 0; lap < 2; lap++ {
		if err := wl.lap(b, lap); err != nil {
			return nil, err
		}
	}
	b.absorb(fmt.Sprint(b.attempted.Load(), b.failed.Load()))
	if tr != nil {
		spans, err := tr.collect()
		if err != nil {
			return nil, err
		}
		if _, err := analyze(layerInput{spans: spans, replicas: wl.replicas, userWritten: b.userWritten.Load()}); err != nil {
			return nil, err
		}
	}
	return b.digest.Sum(nil), nil
}

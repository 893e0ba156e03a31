package main

import "testing"

// TestTracedRunIsTransparent runs each workload small and single-worker
// with and without the traced wrappers and requires identical outcomes
// and exactly matching counts at the layer boundaries.
func TestTracedRunIsTransparent(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			if err := checkTransparency(workloads[name], 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOwnerOf(t *testing.T) {
	for in, want := range map[string]int8{
		"/mdtest/w1.l0.f000001":      1,
		"/ior/w0":                    0,
		"chunks/#2fckpt#2fw1/3":      1,
		"snap/#2fckpt#2fw0.5.2":      0,
		"/resident/r0000001":         -1,
		"meta/wal-000001.log":        -1,
		"chunks/#2fmdtest#2fwx.l0/0": -1,
		"/w":                         -1,
	} {
		if got := ownerOf(in); got != want {
			t.Errorf("ownerOf(%q) = %d, want %d", in, got, want)
		}
	}
}

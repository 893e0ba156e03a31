package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// layerRPCs are the RPCs whose transport and daemon costs are reported.
var layerRPCs = []rpc.Op{proto.OpCreate, proto.OpStat, proto.OpRemoveMeta, proto.OpUpdateSize,
	proto.OpWriteChunks, proto.OpReadChunks, proto.OpSnapshot}

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// perLayerMetrics lists every per-layer metric in report order.
func perLayerMetrics() []metricDef {
	var ms []metricDef
	for f := 0; f < nFamilies; f++ {
		op := facadeOp(f).String()
		ms = append(ms, metricDef{"client." + op + ".self_us", "us"}, metricDef{"client." + op + ".rpcs", "rpc/call"})
	}
	ms = append(ms,
		metricDef{"client.write.wire_bytes_per_byte", "B/B"},
		metricDef{"client.read.wire_bytes_per_byte", "B/B"},
		metricDef{"client.hedged_per_read", "1/call"})
	for _, op := range layerRPCs {
		n := proto.OpName(op)
		ms = append(ms, metricDef{"transport." + n + ".rtt_p50_us", "us"}, metricDef{"transport." + n + ".self_us", "us"})
	}
	ms = append(ms, metricDef{"transport.inflight_mean", "rpc"},
		metricDef{"daemon.queue_wait_us", "us"}, metricDef{"daemon.queue_wait_p99_us", "us"})
	for _, op := range layerRPCs {
		n := proto.OpName(op)
		ms = append(ms, metricDef{"daemon." + n + ".handle_us", "us"}, metricDef{"daemon." + n + ".self_us", "us"})
	}
	ms = append(ms, metricDef{"daemon.busy_frac", "1"},
		metricDef{"kvstore.wal_bytes_per_op", "B/op"},
		metricDef{"kvstore.syncs_per_op", "1/op"},
		metricDef{"kvstore.sst_created", "count"},
		metricDef{"kvstore.sst_reads_per_stat", "1/op"},
		metricDef{"kvstore.bytes_written_per_op", "B/op"},
		metricDef{"kvstore.vfs_us", "us/op"},
		metricDef{"chunkstore.bytes_written_per_byte", "B/B"},
		metricDef{"chunkstore.cow_bytes_per_byte", "B/B"},
		metricDef{"chunkstore.bytes_read_per_byte", "B/B"},
		metricDef{"chunkstore.opens_per_call", "1/rpc"},
		metricDef{"chunkstore.vfs_us", "us/rpc"},
		metricDef{"chunkstore.stored_bytes_per_byte", "B/B"},
		metricDef{"runtime.alloc_bytes_per_op", "B/op"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_frac", "1"})
	for f := 0; f < nFamilies; f++ {
		ms = append(ms, metricDef{"attrib." + facadeOp(f).String() + ".residual_frac", "1"})
	}
	return ms
}

// layerInput is what the per-layer analysis needs besides the spans.
type layerInput struct {
	spans       [4][]span
	timedNS     float64
	replicas    int
	userWritten int64
	userRead    int64
	liveBytes   int64 // logical bytes of the workload's files at the end
	storedBytes int64 // chunk store bytes (live + pre-images) at the end
	hedged      uint64
	daemon      histWindow // daemon histograms, cluster-wide, around the timed part
}

// familyCost is one op family's per-call breakdown (ns per call).
type familyCost struct {
	calls                                     int
	call, self, transport, queue, daemon, vfs float64
	rpcs                                      float64
}

func (f familyCost) residual() float64 {
	return f.call - (f.self + f.transport + f.queue + f.daemon + f.vfs)
}

// layerResult holds the per-layer metric values and the attribution table.
type layerResult struct {
	values   map[string]float64
	families [nFamilies]familyCost
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// analyze turns one traced pass into per-layer metrics. It fails when the
// wrappers were not transparent: every client RPC must meet exactly one
// daemon dispatch, and the chunk store must have written exactly R bytes
// per user byte.
func analyze(in layerInput) (*layerResult, error) {
	calls, rpcs, handles, vfsSpans := in.spans[kindCall], in.spans[kindRPC], in.spans[kindHandle], in.spans[kindVFS]
	v := map[string]float64{}
	res := &layerResult{values: v}

	// Transparency: RPCs sent equal dispatches served, per op.
	sent, served := map[uint8]int{}, map[uint8]int{}
	for i := range rpcs {
		sent[rpcs[i].op]++
	}
	for i := range handles {
		served[handles[i].op]++
	}
	for op := proto.OpPing; op <= proto.OpSnapshotDrop; op++ {
		if sent[uint8(op)] != served[uint8(op)] {
			return nil, fmt.Errorf("traced run: %d %s RPCs sent but %d dispatched",
				sent[uint8(op)], proto.OpName(op), served[uint8(op)])
		}
	}

	// Per-RPC-op round trips and proxy-side dispatch times.
	rtt := map[uint8][]float64{}
	rttSum, handleSum := map[uint8]float64{}, map[uint8]float64{}
	var rttTotal float64
	for i := range rpcs {
		d := float64(rpcs[i].dur())
		rtt[rpcs[i].op] = append(rtt[rpcs[i].op], d)
		rttSum[rpcs[i].op] += d
		rttTotal += d
	}
	for i := range handles {
		handleSum[handles[i].op] += float64(handles[i].dur())
	}
	meanRTT := func(op uint8) float64 { return ratio(rttSum[op], float64(sent[op])) }
	meanProxy := func(op uint8) float64 { return ratio(handleSum[op], float64(served[op])) }
	handleMean := func(op rpc.Op) float64 { return in.daemon.mean(opHistName(op)) }

	// Storage time under each dispatch: a vfs span is the child of the
	// dispatches on its daemon that cover it (and touch the same worker's
	// file, when both name one); shared coverage is split evenly.
	vfsUnder := attributeVFS(handles, vfsSpans)
	vfsPerOp := map[uint8]float64{}
	for i := range handles {
		vfsPerOp[handles[i].op] += vfsUnder[i]
	}
	for op := range vfsPerOp {
		vfsPerOp[op] = ratio(vfsPerOp[op], float64(served[op]))
	}

	// Client: each RPC belongs to the latest call, started before it, on
	// the same worker's file.
	perCall := attributeRPCs(calls, rpcs)
	for i := range calls {
		c := &calls[i]
		if int(c.op) >= nFamilies {
			continue
		}
		fc := &res.families[c.op]
		fc.calls++
		fc.call += float64(c.dur())
		fc.self += float64(c.dur() - covered(c, rpcs, perCall[i]))
		fc.rpcs += float64(len(perCall[i]))
		for _, r := range perCall[i] {
			op := rpcs[r].op
			h := handleMean(rpc.Op(op))
			fc.transport += meanRTT(op) - meanProxy(op)
			fc.queue += meanProxy(op) - h
			fc.daemon += h - vfsPerOp[op]
			fc.vfs += vfsPerOp[op]
		}
	}
	var familyCalls float64
	for f := range res.families {
		fc := &res.families[f]
		n := float64(fc.calls)
		for _, p := range []*float64{&fc.call, &fc.self, &fc.transport, &fc.queue, &fc.daemon, &fc.vfs, &fc.rpcs} {
			*p = ratio(*p, n)
		}
		name := facadeOp(f).String()
		v["client."+name+".self_us"] = fc.self / 1e3
		v["client."+name+".rpcs"] = fc.rpcs
		v["attrib."+name+".residual_frac"] = ratio(fc.residual(), fc.call)
		familyCalls += n
	}
	nStat, nRead := float64(res.families[opStat].calls), float64(res.families[opRead].calls)

	var wireOut, wireIn float64
	for i := range rpcs {
		switch rpc.Op(rpcs[i].op) {
		case proto.OpWriteChunks:
			wireOut += float64(rpcs[i].bytes)
		case proto.OpReadChunks:
			wireIn += float64(rpcs[i].bytes)
		}
	}
	v["client.write.wire_bytes_per_byte"] = ratio(wireOut, float64(in.userWritten))
	v["client.read.wire_bytes_per_byte"] = ratio(wireIn, float64(in.userRead))
	v["client.hedged_per_read"] = ratio(float64(in.hedged), nRead)

	// Transport and daemon.
	for _, op := range layerRPCs {
		n, o := proto.OpName(op), uint8(op)
		s := slices.Clone(rtt[o])
		sort.Float64s(s)
		v["transport."+n+".rtt_p50_us"] = quantile(s, 0.5) / 1e3
		v["transport."+n+".self_us"] = (meanRTT(o) - meanProxy(o)) / 1e3
		h := handleMean(op)
		v["daemon."+n+".handle_us"] = h / 1e3
		v["daemon."+n+".self_us"] = (h - vfsPerOp[o]) / 1e3
		if served[o] == 0 {
			v["daemon."+n+".self_us"] = 0
		}
	}
	v["transport.inflight_mean"] = ratio(rttTotal, in.timedNS)
	v["daemon.queue_wait_us"] = in.daemon.mean(telemetry.DaemonQueueWaitNS) / 1e3
	v["daemon.queue_wait_p99_us"] = in.daemon.quantile(telemetry.DaemonQueueWaitNS, 0.99) / 1e3
	var busy float64
	for op := proto.OpPing; op <= proto.OpSnapshotDrop; op++ {
		busy += in.daemon.sum(opHistName(op))
	}
	v["daemon.busy_frac"] = ratio(busy, in.timedNS*nDaemons)

	// Storage, classified by vfs prefix.
	var walBytes, metaBytes, metaNS, syncs, sstCreated, sstReads float64
	var chunkW, snapW, chunkR, opens, chunkNS float64
	for i := range vfsSpans {
		s := &vfsSpans[i]
		op := vfsOp(s.op)
		written := op == vfsWrite || op == vfsAppend
		switch s.class {
		case classMeta:
			metaNS += float64(s.dur())
			if written {
				metaBytes += float64(s.bytes)
				if s.wal {
					walBytes += float64(s.bytes)
				}
			}
			if op == vfsSync {
				syncs++
			}
			if s.sst && op == vfsCreate {
				sstCreated++
			}
			if s.sst && op == vfsRead {
				sstReads++
			}
		case classChunks, classSnap:
			chunkNS += float64(s.dur())
			switch {
			case written && s.class == classChunks:
				chunkW += float64(s.bytes)
			case written:
				snapW += float64(s.bytes)
			case op == vfsRead:
				chunkR += float64(s.bytes)
			case op == vfsCreate || op == vfsOpen || op == vfsOpenOrCreate:
				opens++
			}
		}
	}
	if want := float64(in.replicas) * float64(in.userWritten); chunkW != want {
		return nil, fmt.Errorf("traced run: chunk store wrote %.0f bytes for %d user bytes at R=%d",
			chunkW, in.userWritten, in.replicas)
	}
	dataRPCs := float64(served[uint8(proto.OpWriteChunks)] + served[uint8(proto.OpReadChunks)])
	v["kvstore.wal_bytes_per_op"] = ratio(walBytes, familyCalls)
	v["kvstore.syncs_per_op"] = ratio(syncs, familyCalls)
	v["kvstore.sst_created"] = sstCreated
	v["kvstore.sst_reads_per_stat"] = ratio(sstReads, nStat)
	v["kvstore.bytes_written_per_op"] = ratio(metaBytes, familyCalls)
	v["kvstore.vfs_us"] = ratio(metaNS, familyCalls) / 1e3
	v["chunkstore.bytes_written_per_byte"] = ratio(chunkW, float64(in.userWritten))
	v["chunkstore.cow_bytes_per_byte"] = ratio(snapW, float64(in.userWritten))
	v["chunkstore.bytes_read_per_byte"] = ratio(chunkR, float64(in.userRead))
	v["chunkstore.opens_per_call"] = ratio(opens, dataRPCs)
	v["chunkstore.vfs_us"] = ratio(chunkNS, dataRPCs) / 1e3
	v["chunkstore.stored_bytes_per_byte"] = ratio(float64(in.storedBytes), float64(in.liveBytes))
	return res, nil
}

// attributeRPCs assigns each RPC span to the call span that issued it:
// the latest call, started no later than the RPC, on the same worker's
// file. It returns, per call, the indexes of its RPCs.
func attributeRPCs(calls, rpcs []span) [][]int {
	byOwner := map[int8][]int{}
	for i := range calls {
		byOwner[calls[i].owner] = append(byOwner[calls[i].owner], i)
	}
	for _, idx := range byOwner {
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(calls[a].start, calls[b].start) })
	}
	out := make([][]int, len(calls))
	for r := range rpcs {
		idx := byOwner[rpcs[r].owner]
		k := sort.Search(len(idx), func(i int) bool { return calls[idx[i]].start > rpcs[r].start })
		if k > 0 {
			out[idx[k-1]] = append(out[idx[k-1]], r)
		}
	}
	return out
}

// covered returns how much of call c's interval its RPCs cover.
func covered(c *span, rpcs []span, mine []int) int64 {
	iv := make([][2]int64, 0, len(mine))
	for _, r := range mine {
		s, e := max(rpcs[r].start, c.start), min(rpcs[r].end, c.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, reach int64
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			total += x[1] - reach
			reach = x[1]
		}
	}
	return total
}

// attributeVFS returns, per dispatch span, the storage time of its child
// vfs spans (see analyze).
func attributeVFS(handles, vfsSpans []span) []float64 {
	under := make([]float64, len(handles))
	order := make([]int, len(handles))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(handles[a].start, handles[b].start) })
	vs := make([]int, len(vfsSpans))
	for i := range vs {
		vs[i] = i
	}
	slices.SortFunc(vs, func(a, b int) int { return cmp.Compare(vfsSpans[a].start, vfsSpans[b].start) })
	var active [nDaemons][]int
	next := 0
	var match []int
	for _, vi := range vs {
		s := &vfsSpans[vi]
		for next < len(order) && handles[order[next]].start <= s.start {
			h := order[next]
			active[handles[h].node] = append(active[handles[h].node], h)
			next++
		}
		act := active[s.node][:0]
		match = match[:0]
		for _, h := range active[s.node] {
			if handles[h].end < s.start {
				continue // finished before this span began: drop it
			}
			act = append(act, h)
			if handles[h].end >= s.end && (s.owner < 0 || handles[h].owner < 0 || s.owner == handles[h].owner) {
				match = append(match, h)
			}
		}
		active[s.node] = act
		for _, h := range match {
			under[h] += float64(s.dur()) / float64(len(match))
		}
	}
	return under
}

// opHistName is the daemon's latency histogram for op.
func opHistName(op rpc.Op) string { return "gkfs_daemon_op_" + proto.OpName(op) + "_ns" }

// hists is a set of histograms by metric name.
type hists map[string]telemetry.HistSnapshot

// daemonHists merges every daemon's histograms into one cluster-wide set.
func daemonHists(cl *cluster) hists {
	out := hists{}
	for _, d := range cl.daemons {
		for name, h := range d.Telemetry().Snapshot().Hists {
			m := out[name]
			m.Merge(h)
			out[name] = m
		}
	}
	return out
}

// histWindow reads the samples histograms recorded between two snapshots.
type histWindow struct{ before, after hists }

func (w histWindow) count(name string) float64 {
	return float64(w.after[name].Count - w.before[name].Count)
}

func (w histWindow) sum(name string) float64 {
	return float64(w.after[name].Sum - w.before[name].Sum)
}

func (w histWindow) mean(name string) float64 { return ratio(w.sum(name), w.count(name)) }

// quantile returns the q-quantile of the window's samples, at the
// histogram's bucket resolution.
func (w histWindow) quantile(name string, q float64) float64 {
	after, before := w.after[name], w.before[name]
	n := after.Count - before.Count
	if n == 0 {
		return 0
	}
	prev := map[uint32]uint64{}
	for _, b := range before.Buckets {
		prev[b.Index] = b.Count
	}
	rank := uint64(max(1, math.Ceil(q*float64(n))))
	var seen, cumAfter uint64
	for _, b := range after.Buckets {
		seen += b.Count - prev[b.Index]
		if seen >= rank {
			// The after-snapshot's quantile at this bucket's first sample
			// is the bucket's representative value.
			return float64(after.Quantile((float64(cumAfter) + 0.5) / float64(after.Count)))
		}
		cumAfter += b.Count
	}
	return 0
}

// printAttribution writes the attribution table: each op family's mean
// call time against the sum of its layers' shares, and the residual.
func printAttribution(w io.Writer, res *layerResult) {
	fmt.Fprintf(w, "# attribution (us per call): %-9s %7s %9s %7s %9s %7s %9s %9s %9s %8s\n",
		"op", "calls", "call", "client", "transport", "queue", "daemon", "storage", "residual", "rpcs")
	for f := range res.families {
		fc := res.families[f]
		if fc.calls == 0 {
			continue
		}
		fmt.Fprintf(w, "# attribution (us per call): %-9s %7d %9.2f %7.2f %9.2f %7.2f %9.2f %9.2f %9.2f %8.2f\n",
			facadeOp(f), fc.calls, fc.call/1e3, fc.self/1e3, fc.transport/1e3, fc.queue/1e3,
			fc.daemon/1e3, fc.vfs/1e3, fc.residual()/1e3, fc.rpcs)
	}
}

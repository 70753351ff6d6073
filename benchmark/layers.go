package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/repro/wormhole"
	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/shard"
)

// fixedPass drives one generator for a fixed number of key-ops, so that
// the untraced and the traced pass, and any two runs with one seed, execute
// the same operations.
type fixedPass struct {
	rs        roundStats
	wall      float64
	allocs    float64 // heap allocations per completed op
	gcPauseMs float64
	drainMs   float64 // net-a-repl: last ack until the follower has everything
	fa, ff    int64   // end-state checks made and failed
	w         worker
}

// With lags set (net-a-repl's traced pass) the follower's lag is sampled
// while the ops run.
func (r *run) fixedPass(inst instance, lags *lagSampler) (*fixedPass, error) {
	w, err := inst.worker(0, 1)
	if err != nil {
		return nil, err
	}
	p := &fixedPass{}
	p.rs.lat = make([]uint32, 0, r.sp.traceOps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n, _ := inst.(*netInst)
	if lags != nil {
		lags.start(n)
	}
	t0 := now()
	for p.rs.attempted < int64(r.sp.traceOps) {
		w.step(&p.rs)
	}
	t1 := now()
	if lags != nil {
		lags.stop()
	}
	runtime.ReadMemStats(&ms1)
	if n != nil && n.follower != nil {
		if err := n.drain(); err != nil {
			r.failf("%v", err)
		}
		p.drainMs = float64(now()-t1) / 1e6
	}
	p.w = w
	if p.rs.completed == 0 {
		w.close()
		return nil, fmt.Errorf("the pass completed no operation: %v", r.notes)
	}
	p.wall = float64(t1-t0) / 1e9
	p.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(p.rs.completed)
	p.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return p, nil
}

// check runs the instance's end-state checks; they may close the store.
func (p *fixedPass) check(inst instance) {
	p.fa, p.ff = inst.finish([]worker{p.w})
	p.w.close()
}

// lagSampler reads the follower's lag every 10 ms between start and stop.
type lagSampler struct {
	lags          []float64 // read after stop
	done, stopped chan struct{}
}

func (s *lagSampler) start(n *netInst) {
	s.done, s.stopped = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.stopped)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if lag, known := n.follower.Lag(); known {
					s.lags = append(s.lags, float64(lag))
				}
			}
		}
	}()
}

func (s *lagSampler) stop() { close(s.done); <-s.stopped }

func histDelta(h *metrics.Histogram, before metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	a := h.Snapshot()
	for i := range a.Counts {
		a.Counts[i] -= before.Counts[i]
	}
	a.Count -= before.Count
	a.SumNs -= before.SumNs
	return a
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// tracedRun is -trace 1: the same fixed op stream once untraced and once
// traced, then replayed on bare stores to tell core from shard from log.
func (r *run) tracedRun() (*workloadResult, error) {
	res := r.newResult()
	r.gens = 1 // one client; the store keeps one shard per CPU
	pl := map[string]float64{}

	// Pass 1, tracing off: the base for the overhead and the runtime's share.
	inst, err := r.sp.build(r)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := r.fixedPass(inst, nil)
	if err == nil {
		plain.check(inst)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	pl["runtime.allocs_per_op"] = plain.allocs
	pl["runtime.gc_pause_ms"] = plain.gcPauseMs

	// Pass 2, tracing on. A request is at most a root, one store call per
	// op and two file operations per Set.
	r.tr = newTracer(4*r.sp.traceOps+1024, r.shards)
	tr := r.tr
	inst, err = r.sp.build(r)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer inst.close()
	n, _ := inst.(*netInst)
	var lags *lagSampler
	if n != nil && n.follower != nil {
		lags = &lagSampler{}
	}
	appendH, fsyncH, waitH := tr.wal.AppendSeconds.Snapshot(), tr.wal.FsyncSeconds.Snapshot(), tr.wal.CommitWaitSeconds.Snapshot()
	fsyncs0, writes0, bytes0, syncs0 := tr.wal.Fsyncs.Value(), tr.fs.writes.Load(), tr.fs.writeBytes.Load(), tr.fs.syncs.Load()
	var walBytes0 int64
	if n != nil && n.leader != nil {
		walBytes0 = n.leader.WALBytes()
	}
	traced, err := r.fixedPass(inst, lags)
	if err != nil {
		return nil, err
	}
	r.tr = nil
	lt := tr.layers()
	var walBytes int64
	if n != nil && n.leader != nil {
		walBytes = n.leader.WALBytes() - walBytes0
	}
	// The end-state checks close the store, which syncs once more.
	fsyncs := int64(tr.wal.Fsyncs.Value() - fsyncs0)
	writes, writeBytes, syncs := tr.fs.writes.Load()-writes0, tr.fs.writeBytes.Load()-bytes0, tr.fs.syncs.Load()-syncs0
	tr.fs.mu.Lock()
	syncP50 := medianInt(tr.fs.syncNs[len(tr.fs.syncNs)-int(syncs):])
	tr.fs.mu.Unlock()
	traced.check(inst)

	// The trace must be whole and must agree with the counts taken beside it.
	switch {
	case tr.dropped.Load() > 0:
		return nil, fmt.Errorf("trace buffer too small: %d spans dropped", tr.dropped.Load())
	case lt.malformed > 0:
		return nil, fmt.Errorf("%d spans reach outside their root", lt.malformed)
	case traced.rs.attempted != plain.rs.attempted:
		return nil, fmt.Errorf("traced pass sent %d ops, untraced %d", traced.rs.attempted, plain.rs.attempted)
	case tr.storeOps.Load() != traced.rs.attempted:
		return nil, fmt.Errorf("store calls carried %d ops, the client sent %d", tr.storeOps.Load(), traced.rs.attempted)
	case syncs != fsyncs:
		return nil, fmt.Errorf("vfs saw %d syncs, the WAL counted %d fsyncs", syncs, fsyncs)
	case lt.self+lt.store+lt.vfs != lt.total:
		return nil, fmt.Errorf("self times sum to %d ns, roots to %d ns", lt.self+lt.store+lt.vfs, lt.total)
	}

	total := float64(lt.total)
	ops := float64(traced.rs.attempted)
	pl["trace.overhead_frac"] = 1 - (float64(traced.rs.completed)/traced.wall)/(float64(plain.rs.completed)/plain.wall)
	per := func(name spanName, perOp bool) float64 {
		cs := lt.byCall[name]
		if cs == nil {
			return 0
		}
		if perOp {
			return float64(cs.ns) / float64(cs.ops)
		}
		return float64(cs.ns) / float64(cs.calls)
	}
	var shape core.Stats
	var footprint int64

	if c, ok := inst.(*coreInst); ok {
		// Direct calls: the root is the call, so the time is all core's.
		pl["core.get_ns"] = per(spanGet, false)
		pl["core.getbatch_ns_per_key"] = per(spanGetBatch, true)
		pl["core.set_ns"] = per(spanSet, false)
		pl["core.del_ns"] = per(spanDel, false)
		if lt.scans > 0 {
			pl["core.scan_first_ns"] = lt.scanFirst / float64(lt.scans)
			pl["core.scan_next_ns_per_key"] = lt.scanNext / float64(lt.scanPairs)
		}
		pl["core.self_share"] = float64(lt.store) / total
		shape, footprint = c.ix.Stats(), c.ix.Footprint()
	} else {
		pl["netkv.self_us_per_batch"] = float64(lt.self) / float64(lt.roots) / 1e3
		pl["netkv.self_share"] = float64(lt.self) / total
		pl["vfs.self_share"] = float64(lt.vfs) / total

		// Replay the pass's ops on a bare index: what core alone costs.
		rp := r.replayOps()
		bare := wormhole.New()
		for i := 0; i < r.data.stable; i++ {
			bare.Set(bytes.Clone(r.data.keys[i]), newVal(r.data.tags[i], 0))
		}
		rd := bare.Reader()
		coreAll, coreGets := rp.time(rd.Get, bare.Set)
		rd.Close()
		pl["core.get_ns"] = coreGets / float64(rp.gets)
		pl["core.set_ns"] = (coreAll - coreGets) / float64(rp.sets)
		shape, footprint = bare.Stats(), bare.Footprint()

		// Store calls overlap across shards, so split the time they cover
		// in the proportions of their plain sums.
		inStore := float64(lt.callNs - lt.fileNs)
		coreFrac, shardFrac := 1.0, 0.0
		if n.leader != nil && inStore > 0 {
			vol := shard.New(shard.Options{Partitioner: shard.NewExplicit(n.leader.Bounds())})
			for i := 0; i < r.data.stable; i++ {
				vol.Set(bytes.Clone(r.data.keys[i]), newVal(r.data.tags[i], 0))
			}
			vr := vol.NewReader()
			shardAll, _ := rp.time(vr.Get, vol.Set)
			vr.Close()
			coreFrac = min(coreAll/inStore, 1)
			shardFrac = min(max(shardAll-coreAll, 0)/inStore, 1-coreFrac)
			pl["shard.self_ns_per_op"] = shardFrac * inStore / ops
			pl["shard.self_share"] = shardFrac * float64(lt.store) / total
			pl["wal.self_share"] = (1 - coreFrac - shardFrac) * float64(lt.store) / total
			t0 := now()
			for _, idx := range rp.idx {
				n.leader.ShardOf(r.data.keys[idx])
			}
			pl["shard.locate_ns"] = float64(now()-t0) / float64(len(rp.idx))
			shape, footprint = n.leader.Stats(), n.leader.Footprint()

			var userBytes int64
			for i, idx := range rp.idx {
				if !rp.get[i] {
					userBytes += int64(len(r.data.keys[idx]) + valLen)
				}
			}
			pl["wal.bytes_per_user_byte"] = float64(walBytes) / float64(userBytes)
			pl["wal.append_p50_us"] = histDelta(tr.wal.AppendSeconds, appendH).Quantile(0.5) / 1e3
			pl["wal.fsync_p50_us"] = histDelta(tr.wal.FsyncSeconds, fsyncH).Quantile(0.5) / 1e3
			pl["wal.commit_wait_p50_us"] = histDelta(tr.wal.CommitWaitSeconds, waitH).Quantile(0.5) / 1e3
			pl["wal.recover_s"] = tr.recoverS
			pl["wal.snapshot_bytes"] = float64(tr.snapshotBytes)
			pl["vfs.writes"] = float64(writes)
			pl["vfs.write_bytes"] = float64(writeBytes)
			pl["vfs.syncs"] = float64(syncs)
			if syncs > 0 {
				pl["vfs.sync_p50_us"] = syncP50 / 1e3
				pl["vfs.sets_per_sync"] = float64(rp.sets) / float64(syncs)
			}
		}
		pl["core.self_share"] = coreFrac * float64(lt.store) / total
		if lags != nil && len(lags.lags) > 0 {
			pl["repl.lag_records_p50"] = median(lags.lags)
			pl["repl.lag_records_max"] = slices.Max(lags.lags)
		}
		pl["repl.drain_ms"] = traced.drainMs
	}
	if shape.Keys > 0 && shape.Leaves > 0 {
		pl["core.bytes_per_key"] = float64(footprint) / float64(shape.Keys)
		pl["core.leaves"] = float64(shape.Leaves)
		pl["core.keys_per_leaf"] = float64(shape.Keys) / float64(shape.Leaves)
	}

	res.TraceFile = filepath.Join(r.cfg.out, "trace-"+r.sp.name+".json")
	if err := tr.writeTrace(res.TraceFile); err != nil {
		return nil, err
	}
	res.PerLayer = map[string]metricVal{}
	for _, def := range perLayer {
		res.PerLayer[def.Name] = metricVal{Value: pl[def.Name], Unit: def.Unit, Better: def.Better}
	}
	res.Diag = map[string]float64{
		"trace.roots": float64(lt.roots), "trace.spans": float64(len(tr.recorded())),
		"trace.root_total_ms": total / 1e6, "trace.untraced_ops_per_s": float64(plain.rs.completed) / plain.wall,
		"trace.traced_ops_per_s": float64(traced.rs.completed) / traced.wall,
	}
	res.Attempted = plain.rs.attempted + traced.rs.attempted + plain.fa + traced.fa
	res.Failed = res.Attempted - plain.rs.completed - traced.rs.completed - (plain.fa - plain.ff) - (traced.fa - traced.ff)
	r.seal(res)
	return res, nil
}

// replay is the op list of a net workload's fixed pass: generator 0's
// stream from its start, which with a single client owns every key.
type replay struct {
	idx        []uint32
	get        []bool
	gets, sets int
	keys       [][]byte
	vals       [][]byte // one fresh value per Set, allocated outside the timing
}

func (r *run) replayOps() *replay {
	rp := &replay{}
	cur := newCursor(&r.data.streams[0])
	for i := 0; i < r.sp.traceOps; i++ {
		idx, kind := cur.next()
		rp.idx = append(rp.idx, idx)
		rp.get = append(rp.get, kind == kGet)
		rp.keys = append(rp.keys, r.data.keys[idx])
		if kind == kGet {
			rp.gets++
			rp.vals = append(rp.vals, nil)
		} else {
			rp.sets++
			rp.vals = append(rp.vals, newVal(r.data.tags[idx], 1))
		}
	}
	return rp
}

// time runs the ops three times and returns the median time of all of
// them, and of the Gets alone, in ns. Sets are idempotent, so the passes
// repeat.
func (rp *replay) time(get func([]byte) ([]byte, bool), set func(k, v []byte)) (all, gets float64) {
	var alls, getss []float64
	for pass := 0; pass < 3; pass++ {
		t0 := now()
		for i, k := range rp.keys {
			if rp.get[i] {
				get(k)
			} else {
				set(k, rp.vals[i])
			}
		}
		t1 := now()
		for i, k := range rp.keys {
			if rp.get[i] {
				get(k)
			}
		}
		t2 := now()
		alls, getss = append(alls, float64(t1-t0)), append(getss, float64(t2-t1))
	}
	return median(alls), median(getss)
}

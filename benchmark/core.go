package main

import (
	"bytes"

	"github.com/repro/wormhole"
)

const (
	coreBatch = 64 // Gets, then keys per GetBatch, in one core-c-az1 cycle
	scanLen   = 50 // keys per scan in core-e-az1
)

// coreInst is a wormhole.Index called in-process: no server, no log.
type coreInst struct {
	r     *run
	ix    *wormhole.Index
	newW  func(c *coreInst, g, gens int) worker
	rings []*ring // per generator, for the end-state count
}

// buildCore loads the stable keys with single-threaded Sets (the paper's
// Figure 15 load). The index gets its own copy of every key, as it would
// from any caller that does not keep its request buffers, so the heap
// growth over set-up counts keys, values and index.
func buildCore(r *run, word func(i int) uint64, newW func(c *coreInst, g, gens int) worker) (instance, error) {
	d := r.data
	ix := wormhole.New()
	for i := 0; i < d.stable; i++ {
		ix.Set(bytes.Clone(d.keys[i]), newVal(d.tags[i], word(i)))
	}
	return &coreInst{r: r, ix: ix, newW: newW, rings: make([]*ring, r.gens)}, nil
}

func (c *coreInst) worker(g, gens int) (worker, error) { return c.newW(c, g, gens), nil }

// finish checks that no insert or delete was lost: the index holds the
// stable keys plus what each generator's ring says is still inserted.
func (c *coreInst) finish([]worker) (attempted, failed int64) {
	want := int64(c.r.data.stable)
	for _, rg := range c.rings {
		if rg != nil {
			want += int64(rg.count)
		}
	}
	if got := c.ix.Count(); got != want {
		c.r.failf("index holds %d keys after the run, want %d", got, want)
		return 1, 1
	}
	return 1, 0
}

func (c *coreInst) close() error { return nil }

// cursor walks one generator's op stream cyclically.
type cursor struct {
	s         *opStream
	pos, mask uint32
}

func newCursor(s *opStream) cursor { return cursor{s: s, mask: uint32(len(s.idx) - 1)} }

func (c *cursor) next() (idx uint32, kind uint8) {
	idx, kind = c.s.idx[c.pos], c.s.kind[c.pos]
	c.pos = (c.pos + 1) & c.mask
	return
}

// ring is one generator's share of the reserve keys: churn inserts the
// next key that is out and deletes the oldest that is in, so the generator
// always knows which of its keys the index must hold.
type ring struct {
	keys        [][]byte
	tags        []uint64
	head, count int
}

func newRing(d *dataset, g, gens int) *ring {
	per := len(d.reserve()) / gens
	lo := d.stable + g*per
	return &ring{keys: d.keys[lo : lo+per], tags: d.tags[lo : lo+per]}
}

// churn performs an insert (or, with the ring full, a delete) when in is
// set, and the reverse otherwise. It reports whether the op was a delete
// and, for a delete, whether the key was there.
func (rg *ring) churn(ix *wormhole.Index, in bool, word uint64) (del, ok bool) {
	if in && rg.count == len(rg.keys) || !in && rg.count > 0 {
		ok = ix.Del(rg.keys[rg.head])
		rg.head = (rg.head + 1) % len(rg.keys)
		rg.count--
		return true, ok
	}
	i := (rg.head + rg.count) % len(rg.keys)
	ix.Set(rg.keys[i], newVal(rg.tags[i], word))
	rg.count++
	return false, true
}

// churnOp is one timed churn op of a core generator; it reports whether
// the op did what the ring expected.
func (r *run) churnOp(rs *roundStats, calls *uint64, rg *ring, ix *wormhole.Index, in bool, word uint64) bool {
	t0 := r.begin(calls)
	del, ok := rg.churn(ix, in, word)
	name := spanSet
	if del {
		name = spanDel
	}
	r.end(rs, t0, name, 1)
	if !ok {
		r.failf("Del of an inserted reserve key found nothing")
	}
	return ok
}

func goodVal(v []byte, ok bool, tag uint64) bool {
	return ok && len(v) == valLen && valTag(v) == tag
}

// ---- core-c-az1: point reads ----

type coreCWorker struct {
	r     *run
	rd    *wormhole.Reader
	cur   cursor
	calls uint64
	keys  [][]byte
	idxs  []uint32
}

func buildCoreC(r *run) (instance, error) {
	return buildCore(r, func(int) uint64 { return 0 }, func(c *coreInst, g, gens int) worker {
		return &coreCWorker{r: c.r, rd: c.ix.Reader(), cur: newCursor(&c.r.data.streams[g]),
			keys: make([][]byte, coreBatch), idxs: make([]uint32, coreBatch)}
	})
}

func (w *coreCWorker) step(rs *roundStats) {
	d := w.r.data
	for i := 0; i < coreBatch; i++ {
		idx, _ := w.cur.next()
		t0 := w.r.begin(&w.calls)
		v, ok := w.rd.Get(d.keys[idx])
		w.r.end(rs, t0, spanGet, 1)
		rs.attempted++
		if goodVal(v, ok, d.tags[idx]) {
			rs.completed++
		} else {
			w.r.failf("Get(key %d): found=%v value %x", idx, ok, v)
		}
	}
	for i := range w.keys {
		w.idxs[i], _ = w.cur.next()
		w.keys[i] = d.keys[w.idxs[i]]
	}
	t0 := w.r.begin(&w.calls)
	vals, found := w.rd.GetBatch(w.keys)
	w.r.end(rs, t0, spanGetBatch, coreBatch)
	rs.attempted += coreBatch
	for i, idx := range w.idxs {
		if goodVal(vals[i], found[i], d.tags[idx]) {
			rs.completed++
		} else {
			w.r.failf("GetBatch lane %d (key %d): found=%v value %x", i, idx, found[i], vals[i])
		}
	}
}

func (w *coreCWorker) close() { w.rd.Close() }

// ---- core-a-url: reads beside concurrent writers ----

type coreAWorker struct {
	r       *run
	ix      *wormhole.Index
	rd      *wormhole.Reader
	cur     cursor
	calls   uint64
	ring    *ring
	version uint64
}

func buildCoreA(r *run) (instance, error) {
	return buildCore(r, func(int) uint64 { return 0 }, func(c *coreInst, g, gens int) worker {
		c.rings[g] = newRing(c.r.data, g, gens)
		return &coreAWorker{r: c.r, ix: c.ix, rd: c.ix.Reader(), cur: newCursor(&c.r.data.streams[g]), ring: c.rings[g]}
	})
}

func (w *coreAWorker) step(rs *roundStats) {
	d := w.r.data
	for i := 0; i < 64; i++ {
		idx, kind := w.cur.next()
		rs.attempted++
		switch kind {
		case kGet:
			t0 := w.r.begin(&w.calls)
			v, ok := w.rd.Get(d.keys[idx])
			w.r.end(rs, t0, spanGet, 1)
			if !goodVal(v, ok, d.tags[idx]) {
				w.r.failf("Get(key %d): found=%v value %x", idx, ok, v)
				continue
			}
		case kSet:
			w.version++
			val := newVal(d.tags[idx], w.version)
			t0 := w.r.begin(&w.calls)
			w.ix.Set(d.keys[idx], val)
			w.r.end(rs, t0, spanSet, 1)
		default:
			if !w.r.churnOp(rs, &w.calls, w.ring, w.ix, kind == kInsert, 0) {
				continue
			}
		}
		rs.completed++
	}
}

func (w *coreAWorker) close() { w.rd.Close() }

// ---- core-e-az1: scans under churn ----

type coreEWorker struct {
	r     *run
	ix    *wormhole.Index
	rd    *wormhole.Reader
	cur   cursor
	calls uint64
	ring  *ring
	chk   scanCheck
	visit func(k, v []byte) bool
	first int64 // when the current scan's first pair arrived; traced passes only
}

func buildCoreE(r *run) (instance, error) {
	d := r.data
	return buildCore(r, func(i int) uint64 { return uint64(d.rankOf[i]) }, func(c *coreInst, g, gens int) worker {
		c.rings[g] = newRing(d, g, gens)
		w := &coreEWorker{r: c.r, ix: c.ix, rd: c.ix.Reader(), cur: newCursor(&d.streams[g]), ring: c.rings[g]}
		w.chk.d = d
		w.visit = func(k, v []byte) bool {
			if w.first == 0 && w.r.tr != nil {
				w.first = now()
			}
			return w.chk.visit(k, v)
		}
		return w
	})
}

func (w *coreEWorker) step(rs *roundStats) {
	for i := 0; i < 16; i++ {
		idx, kind := w.cur.next()
		rs.attempted++
		if kind >= kChurnIn {
			if w.r.churnOp(rs, &w.calls, w.ring, w.ix, kind == kChurnIn, noRank) {
				rs.completed++
			}
			continue
		}
		desc := kind == kScanDesc
		start := w.chk.begin(int(idx), desc)
		w.first = 0
		t0 := w.r.begin(&w.calls)
		if desc {
			w.rd.ScanDesc(start, w.visit)
		} else {
			w.rd.Scan(start, w.visit)
		}
		if t0 != 0 {
			t1 := now()
			rs.sample(t0, t1)
			if w.r.tr != nil {
				w.r.tr.direct(spanScan, t0, t1, 1, w.first, w.chk.n)
			}
		}
		if bad := w.chk.end(); bad != "" {
			w.r.failf("scan desc=%v from stable rank %d: %s", desc, idx, bad)
			continue
		}
		rs.completed++
	}
}

func (w *coreEWorker) close() { w.rd.Close() }

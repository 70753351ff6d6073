package core

import (
	"bytes"
	"sync"

	"github.com/repro/wormhole/internal/qsbr"
)

// This file is the memory-parallel batched read path. A scalar Get is a
// chain of dependent cache misses — each LPM probe's bucket address is
// known only after the previous probe's branch resolves, and the leaf
// probe waits behind the whole search — so a batch of B lookups run one
// at a time costs B serialized miss chains. The Cuckoo Trie observation
// (PAPERS.md) is that DRAM indexes have miss-level parallelism to spare
// *across* operations: while one key's probe is outstanding the core can
// issue another key's. GetBatch therefore runs its keys through a staged
// pipeline, `batchDepth` lanes at a time:
//
//  1. hash: every lane's per-byte prefix CRCs and full-key hash are
//     computed up front (pure arithmetic, no memory stalls), into a
//     pooled scratch so steady-state batches allocate nothing;
//  2. warm: every lane's first three binary-search levels' buckets are
//     touched (warmSearchLevels, 7 loads per lane) before any lane
//     starts probing, overlapping up to 7*depth independent misses;
//  3. search: the LPM binary searches advance round-robin — one probe
//     per live lane per round — so each lane's next dependent miss
//     issues while the other lanes' probes are in flight;
//  4. resolve: each lane verifies its optimistic tag-only result,
//     resolves its target leaf (leafFromLPM), snapshots the leaf's
//     seqlock, and touches the leaf's speculative item slot, again
//     overlapping the leaves' misses across lanes;
//  5. probe: each lane performs the seqlock-validated tag search and
//     value materialization exactly as the scalar path; any
//     irregularity — odd seqlock, stale version, dead leaf, seqlock
//     moved, key too long for the eager CRC array — drops that one lane
//     to the scalar getOnline, which owns all retry/locking logic.
//
// The seqlock bracket per lane is the scalar one: s1 is loaded after the
// leaf is resolved and validated after the tag search, so interleaving
// other lanes' work inside the bracket can only widen the window and
// cause a (correct) fallback, never admit a torn read.

// maxBatchLanes bounds the pipeline's interleave depth. 32 lanes of
// prefix-CRC scratch is ~8 KB — comfortably cache-resident, and far past
// the point where extra lanes stop adding overlappable misses.
const maxBatchLanes = 32

// defaultBatchDepth is the pipeline's interleave depth. Eight lanes
// cover typical L1-miss latency with issue slots to spare without
// thrashing the scratch.
const defaultBatchDepth = 8

// batchLane is one key's in-flight state across the pipeline stages.
type batchLane struct {
	hs   [maxEagerPrefix + 1]uint32 // hs[i] = CRC32-C of key[:i]
	h    uint32                     // full-key hash
	ph   uint32                     // hash of the confirmed LPM prefix
	m, n int32                      // binary-search bounds (confirmed, exclusive upper)
	node *metaNode                  // current LPM candidate
	leaf *leafNode                  // resolved target leaf
	s1   uint64                     // leaf seqlock snapshot
	idx  int32                      // position in keys/vals/found
	slow bool                       // lane must take the scalar path
}

// batchScratch is the pooled per-batch state: the lane array dominates
// it, and pooling keeps GetBatch allocation-free in steady state.
type batchScratch struct {
	lanes [maxBatchLanes]batchLane
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchOnline answers the batch inside an already-announced reader
// section (slot s). With SortByTag off the leaf probe has no lock-free
// form, so the batch degrades to the scalar loop.
func (w *Wormhole) getBatchOnline(s *qsbr.Slot, keys, vals [][]byte, found []bool, idxs []int) {
	if !w.opt.SortByTag {
		if idxs == nil {
			for i := range keys {
				vals[i], found[i] = w.getOnline(s, hashKey(keys[i]), keys[i])
			}
			return
		}
		for _, i := range idxs {
			vals[i], found[i] = w.getOnline(s, hashKey(keys[i]), keys[i])
		}
		return
	}
	count := len(keys)
	if idxs != nil {
		count = len(idxs)
	}
	depth := int(w.batchDepth.Load())
	sc := batchScratchPool.Get().(*batchScratch)
	for base := 0; base < count; base += depth {
		wave := min(depth, count-base)
		w.batchWave(s, sc, keys, vals, found, idxs, base, wave)
	}
	batchScratchPool.Put(sc)
}

// batchWave runs one group of up to batchDepth keys through the five
// pipeline stages described at the top of the file.
func (w *Wormhole) batchWave(s *qsbr.Slot, sc *batchScratch, keys, vals [][]byte, found []bool, idxs []int, base, wave int) {
	t := w.cur.Load()
	// t.version is immutable only while t stays published; a stage-5
	// scalar fallback may Refresh the reader slot, after which t can be
	// retired, patched, and republished with a new version while later
	// lanes still validate against it. Capture the publication-time value
	// now, while the wave's epoch still protects t.
	tver := t.version
	lanes := sc.lanes[:wave]
	tagMatch := w.opt.TagMatching

	// Stage 1: per-byte prefix CRCs and the full-key hash for every lane,
	// before any table probe. Keys the eager array cannot hold (or any
	// batch on a non-IncHashing index) go scalar.
	for li := range lanes {
		ln := &lanes[li]
		ki := base + li
		if idxs != nil {
			ki = idxs[base+li]
		}
		ln.idx = int32(ki)
		k := keys[ki]
		maxl := min(len(k), t.maxLen)
		if !w.opt.IncHashing || maxl > maxEagerPrefix {
			ln.slow = true
			ln.h = hashKey(k)
			continue
		}
		ln.slow = false
		c := ^uint32(0)
		i := 0
		for ; i < maxl; i++ {
			c = crcTable[byte(c)^k[i]] ^ (c >> 8)
			ln.hs[i+1] = ^c
		}
		for ; i < len(k); i++ {
			c = crcTable[byte(c)^k[i]] ^ (c >> 8)
		}
		ln.h = ^c
		ln.hs[0] = 0
		ln.m, ln.n = 0, int32(maxl+1)
		ln.node = t.root
		ln.leaf = nil
	}

	// Stage 2: warm every lane's first search levels before any lane
	// begins its dependent probe chain. The summed tags feed a benign
	// branch so the loads stay live.
	var warm uint16
	for li := range lanes {
		ln := &lanes[li]
		if !ln.slow && ln.n > 2 {
			warm += t.warmSearchLevels(&ln.hs, int(ln.n))
		}
	}
	if warm == 0xFFFF {
		lanes[0].node = t.root
	}

	// Stage 3: LPM binary searches, round-robin — one probe per live
	// lane per round, so no lane's miss chain stalls the others.
	for {
		live := false
		for li := range lanes {
			ln := &lanes[li]
			if ln.slow || ln.m+1 >= ln.n {
				continue
			}
			live = true
			pl := int(ln.m+ln.n) / 2
			var nd *metaNode
			if tagMatch {
				nd = t.getTagOnly(ln.hs[pl])
			} else {
				nd = t.get(ln.hs[pl], keys[ln.idx][:pl], false)
			}
			if nd != nil {
				ln.m, ln.node = int32(pl), nd
			} else {
				ln.n = int32(pl)
			}
		}
		if !live {
			break
		}
	}

	// Stage 4: certify each optimistic search with one full comparison
	// (rerunning exactly on a false-positive tag), resolve the target
	// leaf, snapshot its seqlock, and touch its speculative item slot so
	// the leaves' misses overlap across lanes too.
	var leafWarm int
	for li := range lanes {
		ln := &lanes[li]
		if ln.slow {
			continue
		}
		k := keys[ln.idx]
		ln.ph = ln.hs[ln.m]
		if tagMatch && !bytes.Equal(ln.node.key, k[:ln.m]) {
			node, h, _ := w.lpmPass(t, k, false)
			ln.node, ln.ph = node, h
		}
		ln.leaf = w.leafFromLPM(t, k, ln.node, ln.ph)
		ln.s1 = ln.leaf.seq.Load()
		if w.opt.DirectPos {
			_, items := ln.leaf.base.Load().view(int(ln.leaf.baseN.Load()))
			if len(items) > 0 && items[int(uint64(ln.h)*uint64(len(items))>>32)] != noRef {
				leafWarm++
			}
		}
	}
	if leafWarm > maxBatchLanes {
		lanes[0].slow = true // unreachable: leafWarm counts at most one per lane
	}

	// Stage 5: the scalar read protocol per lane — §2.5 version/dead
	// validation and the seqlock-bracketed tag search. Anything
	// irregular retries through getOnline, which owns the retry,
	// locking, and stale-table Refresh logic.
	for li := range lanes {
		ln := &lanes[li]
		ki := int(ln.idx)
		k := keys[ki]
		if ln.slow {
			vals[ki], found[ki] = w.getOnline(s, ln.h, k)
			continue
		}
		l := ln.leaf
		if ln.s1&1 != 0 || l.version.Load() > tver || l.dead.Load() {
			vals[ki], found[ki] = w.getOnline(s, ln.h, k)
			continue
		}
		var v uint64
		a, r := l.findTags(ln.h, k, w.opt.DirectPos)
		if r != noRef {
			v = a.val(r) // findTags checked the header against hw
		}
		if l.seq.Load() != ln.s1 {
			vals[ki], found[ki] = w.getOnline(s, ln.h, k)
			continue
		}
		if r != noRef {
			// The bracket held, so the value ref is current and may be
			// materialized now — never before the validation.
			vals[ki], found[ki] = a.value(v), true
		} else {
			vals[ki], found[ki] = nil, false
		}
	}
}

package core

import (
	"bytes"
	"sync"

	"github.com/repro/wormhole/internal/qsbr"
)

// This file is the memory-parallel batched read path. A scalar Get is a
// chain of dependent cache misses — each LPM probe's bucket address is
// known only after the previous probe's branch resolves, the leaf only
// after the LPM item and its child, the record only after the leaf — so
// a batch of B lookups run one at a time costs B serialized miss chains.
// The Cuckoo Trie observation (PAPERS.md) is that DRAM indexes have
// miss-level parallelism to spare *across* operations: while one key's
// miss is outstanding the core can issue another key's. GetBatch
// therefore runs its keys through a pipeline, `batchDepth` lanes at a
// time, in rounds that each advance every lane by one dependent hop, so
// the lanes' misses of one round are in flight together. Where a hop's
// miss would otherwise stall the round's work — the caller's keys, the
// LPM item, the tag block and arena header, the record and the arena's
// fence prefix the probe checks it against — a round ahead
// touches it: a load whose value only feeds the wave's liveness sink, so
// nothing waits on it. batchWave names each round.
//
// Leaf resolution and the tag search are the scalar path's own steps
// (search.go, leaf.go), run one round at a time. Anything irregular — odd
// seqlock, stale version, dead leaf, seqlock moved, key too long for the
// eager CRC array — drops that one lane to the scalar getOnline, which
// owns all retry and locking logic.
//
// The seqlock bracket per lane is the scalar one: s1 is loaded after the
// leaf is resolved and validated after the tag search, so interleaving
// other lanes' work inside the bracket can only widen the window and
// cause a (correct) fallback, never admit a torn read. A touch loads
// only what a scalar lookup may load, with the same atomicity and under
// the same rules — the arena before the block, a record only below hw —
// so it can neither fault nor race.

// maxBatchLanes bounds the pipeline's interleave depth. 32 lanes of
// scratch is 12 KB — comfortably cache-resident, and far past the point
// where extra lanes stop adding overlappable misses.
const maxBatchLanes = 32

// defaultBatchDepth is the pipeline's interleave depth. On 500k Az1 keys
// (2-vCPU Xeon host) depths 16 and 32 measured within 2–8% of depth 8 per
// key: a lane misses on one to three lines per round, so eight lanes
// already keep most of the core's line-fill buffers busy, and deeper
// waves mostly lengthen each round.
const defaultBatchDepth = 8

// batchLane is one key's in-flight state across the pipeline rounds.
type batchLane struct {
	hs    [maxEagerPrefix + 1]uint32 // hs[i] = CRC32-C of key[:i]
	h     uint32                     // full-key hash
	ph    uint32                     // hash of the LPM item's key
	m, n  int32                      // binary-search bounds (confirmed, exclusive upper)
	node  *metaNode                  // LPM item
	child *metaNode                  // child item its tag names, not yet certified; nil if node decides the leaf
	leaf  *leafNode                  // target leaf
	a     *arena                     // target leaf's arena, then its block's entries
	ents  []tagEnt
	pos   int    // tag search position
	s1    uint64 // leaf seqlock snapshot
	idx   int32  // position in keys/vals/found
	tok   byte   // sibling token of the child
	right bool   // the child is the key's right sibling
	slow  bool   // lane must take the scalar path
}

// batchScratch is the pooled per-batch state: the lane array dominates
// it, and pooling keeps GetBatch allocation-free in steady state.
type batchScratch struct {
	lanes [maxBatchLanes]batchLane
	sink  uint // sum of the bytes the touches read, stored so they stay live
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchOnline answers the batch inside an already-announced reader
// section (slot s) and returns how many lanes it handed to the scalar
// getOnline.
func (w *Wormhole) getBatchOnline(s *qsbr.Slot, keys, vals [][]byte, found []bool, idxs []int) (scalar int) {
	count := len(keys)
	if idxs != nil {
		count = len(idxs)
	}
	depth := int(w.batchDepth.Load())
	sc := batchScratchPool.Get().(*batchScratch)
	sc.sink = touchKeys(keys, idxs)
	for base := 0; base < count; base += depth {
		wave := min(depth, count-base)
		scalar += w.batchWave(s, sc, keys, vals, found, idxs, base, wave)
	}
	batchScratchPool.Put(sc)
	return scalar
}

// touchNode touches the lines of a MetaTrieHT item that leaf resolution
// reads: the key header at its start and the boundary leaves at its end.
func touchNode(n *metaNode) uint {
	x := uint(len(n.key))
	if n.rightmost != nil {
		x++
	}
	return x
}

// touchKeys touches the batch's keys (those idxs names, or all).
func touchKeys(keys [][]byte, idxs []int) uint {
	var x uint
	if idxs == nil {
		for _, k := range keys {
			x += touchKey(k)
		}
		return x
	}
	for _, i := range idxs {
		x += touchKey(keys[i])
	}
	return x
}

// touchKey touches the first and last byte of b.
func touchKey(b []byte) uint {
	if len(b) == 0 {
		return 0
	}
	return uint(b[0]) + uint(b[len(b)-1])
}

// batchWave runs one group of up to batchDepth keys through the rounds
// described at the top of the file and returns how many of them it handed
// to getOnline.
func (w *Wormhole) batchWave(s *qsbr.Slot, sc *batchScratch, keys, vals [][]byte, found []bool, idxs []int, base, wave int) (scalar int) {
	t := w.cur.Load()
	// t.version is immutable only while t stays published; a final-round
	// scalar fallback may Refresh the reader slot, after which t can be
	// retired, patched, and republished with a new version while later
	// lanes still validate against it. Capture the publication-time value
	// now, while the wave's epoch still protects t.
	tver := t.version
	lanes := sc.lanes[:wave]
	sink := sc.sink

	// Hash: per-byte prefix CRCs up to the longest anchor, and the
	// full-key hash, for every lane. Keys the eager array cannot hold go
	// scalar.
	for li := range lanes {
		ln := &lanes[li]
		ki := base + li
		if idxs != nil {
			ki = idxs[ki]
		}
		ln.idx = int32(ki)
		k := keys[ki]
		maxl := min(len(k), t.maxLen)
		if maxl > maxEagerPrefix {
			ln.slow = true
			ln.h = hashKey(k)
			continue
		}
		ln.slow = false
		prefixHashes(&ln.hs, k[:maxl])
		ln.h = hashExtend(ln.hs[maxl], k[maxl:])
		ln.m, ln.n = 0, int32(maxl+1)
		ln.node = t.root
	}

	// Search: the LPM binary searches, round-robin — one probe per live
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
			if nd := t.getTagOnly(ln.hs[pl]); nd != nil {
				ln.m, ln.node = int32(pl), nd
			} else {
				ln.n = int32(pl)
			}
		}
		if !live {
			break
		}
	}

	// Node: touch each lane's LPM item.
	for li := range lanes {
		if ln := &lanes[li]; !ln.slow {
			sink += touchNode(ln.node)
		}
	}

	// Target: certify each optimistic search with one full comparison
	// (rerunning it exactly on a false-positive tag), take Algorithm 3's
	// first step (lpmTarget), and, for a lane that needs a child, the
	// first item the child's tag names.
	for li := range lanes {
		ln := &lanes[li]
		if ln.slow {
			continue
		}
		k := keys[ln.idx]
		ln.ph = ln.hs[ln.m]
		if !bytes.Equal(ln.node.key, k[:ln.m]) {
			ln.node, ln.ph, _ = w.lpmPass(t, k, false)
		}
		ln.leaf, ln.tok, ln.right = lpmTarget(k, ln.node)
		ln.child = nil
		if ln.leaf == nil {
			ln.child = t.getTagOnly(hashExtendByte(ln.ph, ln.tok))
		}
	}

	// Child: certify each child (redoing the exact probe, getChild, on a
	// false-positive tag) and take the leaf it leads to (childLeaf) and,
	// for a right sibling, that leaf's left neighbour (prevLeaf).
	for li := range lanes {
		ln := &lanes[li]
		if ln.slow || ln.child == nil {
			continue
		}
		c := ln.child
		if !equalWithSuffixByte(c.key, ln.node.key, ln.tok) {
			c = t.getChild(ln.ph, ln.node.key, ln.tok)
		}
		ln.leaf = childLeaf(c, ln.right)
		if ln.right {
			ln.leaf = prevLeaf(ln.leaf)
		}
	}

	// Block: touch each target leaf's arena header and, loaded after it
	// (the reader rule), its block's entry at the speculative tag
	// position, whose line holds both the hash and the ref (tagBlock.touch:
	// the address comes from the block pointer and the leaf's count, so
	// the load does not wait for the block's header).
	for li := range lanes {
		ln := &lanes[li]
		if ln.slow {
			continue
		}
		a, b, n := ln.leaf.tagsOf()
		sink += uint(a.hw.Load()) + uint(b.touch(ln.h, n))
	}

	// Record: open each lane's seqlock bracket, apply §2.5's version and
	// dead checks, load the leaf's arena and block (tagsOf) and place the
	// tag search (tagStart, tagPos); touch the first candidate record and
	// the arena's fence prefix under the reader rule, or the inline tail
	// when the base holds none.
	for li := range lanes {
		ln := &lanes[li]
		if ln.slow {
			continue
		}
		l := ln.leaf
		ln.s1 = l.seq.Load()
		if ln.s1&1 != 0 || l.version.Load() > tver || l.dead.Load() {
			ln.slow = true
			continue
		}
		a, b, n := l.tagsOf()
		ln.a = a
		ln.ents = b.view(n)
		i, ok := tagStart(ln.ents, ln.h, n)
		if !ok {
			ln.slow = true // a mixed generation
			continue
		}
		ln.pos = tagPos(ln.ents, ln.h, i)
	}
	for li := range lanes {
		ln := &lanes[li]
		if ln.slow {
			continue
		}
		if ln.pos < len(ln.ents) && ln.ents[ln.pos].hash == ln.h {
			sink += ln.a.touch(ln.ents[ln.pos].ref, len(keys[ln.idx]))
		} else {
			sink += uint(ln.leaf.tailHash[0].Load())
		}
	}
	sc.sink = sink

	// Probe: the scalar read protocol's tag search (matchTags) and value
	// load per lane, then the bracket's validation. Anything irregular
	// retries through getOnline, which owns the retry, locking, and
	// stale-table Refresh logic.
	for li := range lanes {
		ln := &lanes[li]
		ki := int(ln.idx)
		k := keys[ki]
		if ln.slow {
			vals[ki], found[ki] = w.getOnline(s, ln.h, k)
			scalar++
			continue
		}
		l := ln.leaf
		var v uint64
		r := l.matchTags(ln.a, ln.ents, ln.pos, ln.h, k)
		if r != noRef {
			v = ln.a.val(r) // matchTags checked the header against hw
		}
		if l.seq.Load() != ln.s1 {
			vals[ki], found[ki] = w.getOnline(s, ln.h, k)
			scalar++
			continue
		}
		if r != noRef {
			// The bracket held, so the value ref is current and may be
			// materialized now — never before the validation.
			vals[ki], found[ki] = ln.a.value(v), true
		} else {
			vals[ki], found[ki] = nil, false
		}
	}
	return scalar
}

package core

import "unsafe"

// Stats summarizes the index's shape; used by tests, the whbench tables
// and the Figure 16 memory accounting.
type Stats struct {
	Keys         int64
	Leaves       int // LeafList length
	FatLeaves    int // leaves grown past LeafCap (§3.3)
	MetaItems    int // items in the published MetaTrieHT
	LeafItems    int // of which anchors
	MaxAnchorLen int // L_anc: longest stored anchor
	AvgAnchorLen float64
	MetaBuckets  int
	// ArenaBytes is the leaf arenas' capacity; ArenaLiveBytes the part
	// the fence prefixes, live records and their current values hold. The
	// difference is headroom plus overwrite and delete garbage, which
	// compaction bounds.
	ArenaBytes     int64
	ArenaLiveBytes int64
	// TagBlockBytes is what the leaves' published tag blocks take: each
	// block's size class (the shared empty block counts nothing).
	TagBlockBytes int64
	// AvgPrefixLen is the mean length of the leaves' fence prefixes (the
	// longest common prefix of a leaf's anchor and the next one's), and
	// PrefixSavedPerKey the arena bytes per key they save: what the
	// records' padded keys would take whole, less what their padded
	// suffixes take, less each arena's own padded copy of its prefix.
	AvgPrefixLen      float64
	PrefixSavedPerKey float64
}

// Stats walks the structure without locks; call it on a quiescent index.
func (w *Wormhole) Stats() Stats {
	s := Stats{Keys: w.count.Load()}
	var anchorBytes, prefixBytes, saved int
	var refs []uint32
	for l := w.head; l != nil; l = l.next.Load() {
		s.Leaves++
		if l.size() > w.opt.LeafCap {
			s.FatLeaves++
		}
		anchorBytes += len(l.anchor.Load().stored)
		a := l.arena.Load()
		s.ArenaBytes += int64(len(a.buf))
		s.ArenaLiveBytes += int64(align8(a.plen) + a.live)
		s.TagBlockBytes += int64(l.base.Load().size)
		prefixBytes += a.plen
		saved -= align8(a.plen)
		refs = sortedItems(l, refs[:0])
		for _, r := range refs {
			n := len(a.sfx(r))
			saved += align8(a.plen+n) - align8(n)
		}
	}
	t := w.cur.Load()
	t.forEach(func(n *metaNode) {
		s.MetaItems++
		if n.isLeafItem() {
			s.LeafItems++
		}
	})
	s.MaxAnchorLen = t.maxLen
	if s.Leaves > 0 {
		s.AvgAnchorLen = float64(anchorBytes) / float64(s.Leaves)
		s.AvgPrefixLen = float64(prefixBytes) / float64(s.Leaves)
	}
	if s.Keys > 0 {
		s.PrefixSavedPerKey = float64(saved) / float64(s.Keys)
	}
	s.MetaBuckets = len(t.buckets)
	return s
}

// Footprint returns the index's approximate heap consumption in bytes:
// leaf structures and anchors, the leaf arenas (records, headroom and
// garbage), the tag blocks at their size class (each sized to its leaf's
// entries), and every MetaTrieHT copy (both, in concurrent mode — the
// paper reports the second table costs 0.34–3.7% of the whole index). It
// is the analytic counterpart to the paper's getrusage measurement in
// Figure 16.
func (w *Wormhole) Footprint() int64 {
	var total int64
	leafHdr := int64(unsafe.Sizeof(leafNode{}))
	arenaHdr := int64(unsafe.Sizeof(arena{}))
	for l := w.head; l != nil; l = l.next.Load() {
		total += leafHdr // includes the inline tag tail arrays
		total += int64(len(l.anchor.Load().stored)) + int64(unsafe.Sizeof(anchor{}))
		total += int64(l.base.Load().size)
		if a := l.arena.Load(); a != emptyArena {
			total += arenaHdr + int64(len(a.buf))
		}
	}
	total += tableFootprint(w.cur.Load())
	w.metaMu.Lock()
	total += tableFootprint(w.spare)
	w.metaMu.Unlock()
	return total
}

// tableFootprint counts one MetaTrieHT copy: its buckets and its items.
// An item's key is no allocation of its own — a leaf item holds its
// anchor's stored bytes, an internal item a clipped prefix of an anchor
// (applySplit, buildMetaTable) — so the anchors, counted with their
// leaves, account for every key byte.
func tableFootprint(t *metaTable) int64 {
	bucketSz := int64(unsafe.Sizeof(metaBucket{}))
	nodeSz := int64(unsafe.Sizeof(metaNode{}))
	total := int64(len(t.buckets)) * bucketSz
	t.forEach(func(*metaNode) {
		total += nodeSz
	})
	// Overflow buckets.
	for i := range t.buckets {
		for b := t.buckets[i].next; b != nil; b = b.next {
			total += bucketSz
		}
	}
	return total
}

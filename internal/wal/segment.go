package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/repro/wormhole/internal/vfs"
)

// Snapshot format v2: one generation's snapshot is a set of
// independently loadable, prefix-compressed, key-ordered segment files
// plus a footer that indexes them. Only the rename of the footer
// publishes the set, so a segmented snapshot is as atomic as one file.
//
// Segment file (snap-GGGGGGGGGGGGGGGG-NNNNN.seg):
//
//	[magic "WHSSEG2\n"]
//	count × ([plen uvarint][slen uvarint][vlen uvarint][suffix][val])
//	[count uint32][crc32c uint32]
//
// Each entry's key is the previous key's first plen bytes followed by
// the suffix (shared-prefix compression off the ordered scan); the first
// entry of every segment has plen = 0, so a segment decodes with no
// context from its neighbours. The trailing CRC covers everything before
// it. Keys must be strictly ascending, which the decoder checks by
// comparing suffixes past the shared prefix — cheaper than full-key
// compares when prefixes are long, which is exactly when compression
// pays. A segment image is also the replication catch-up chunk: it is
// the only pair encoding (SegmentBuilder writes it, DecodeSegment reads
// it).
//
// Footer (snap-GGGGGGGGGGGGGGGG.snap):
//
//	[magic "WHSNAP2\n"][segCount uint32][totalPairs uint64]
//	segCount × ([pairs uvarint][fileBytes uvarint][keyBytes uvarint]
//	            [crc uint32][firstKeyLen uvarint][firstKey])
//	[crc32c uint32]
//
// fileBytes and crc pin each segment file byte for byte; keyBytes (the
// decoded key-byte total) bounds the loader's arena so a corrupt or
// hostile segment can never balloon allocation past what the CRC'd
// footer vouches for; firstKey lets the loader verify segment order and
// hand decode out to workers that share no state.
var (
	segMagic   = []byte("WHSSEG2\n")
	snapMagic2 = []byte("WHSNAP2\n")
)

// segTrailer is the [count u32][crc u32] segment suffix.
const segTrailer = 8

// DefaultSegmentBytes bounds one segment's encoded size unless
// Options.SegmentBytes overrides it. ~1 MiB keeps per-segment footer
// overhead negligible while giving a multi-core open dozens of decode
// units per shard at bench scale.
const DefaultSegmentBytes = 1 << 20

func segPath(dir string, gen uint64, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x-%05d.seg", gen, idx))
}

// segMeta is one footer entry describing a segment file.
type segMeta struct {
	pairs     uint64 // entries in the segment
	fileBytes uint64 // exact byte length of the segment file
	keyBytes  uint64 // total decoded key bytes (arena budget)
	crc       uint32 // crc32c of the whole segment file
	firstKey  []byte
}

// commonPrefixLen returns the length of the longest shared prefix.
func commonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// SegmentBuilder encodes strictly ascending pairs into one segment
// image. The zero value is ready to use.
type SegmentBuilder struct {
	img      []byte // magic + entries so far
	prev     []byte
	pairs    uint64
	keyBytes uint64
}

// Add appends one pair; key must sort strictly after the previous one
// added since the last Finish. Key and value are copied.
func (b *SegmentBuilder) Add(key, val []byte) {
	plen := 0
	if b.pairs == 0 {
		b.img = append(b.img[:0], segMagic...)
	} else {
		plen = commonPrefixLen(b.prev, key)
	}
	b.img = binary.AppendUvarint(b.img, uint64(plen))
	b.img = binary.AppendUvarint(b.img, uint64(len(key)-plen))
	b.img = binary.AppendUvarint(b.img, uint64(len(val)))
	b.img = append(b.img, key[plen:]...)
	b.img = append(b.img, val...)
	b.pairs++
	b.keyBytes += uint64(len(key))
	b.prev = append(b.prev[:0], key...)
}

// Pairs returns how many pairs were added since the last Finish.
func (b *SegmentBuilder) Pairs() uint64 { return b.pairs }

// KeyBytes returns the decoded key bytes of those pairs: what
// DecodeSegment's key budget must allow.
func (b *SegmentBuilder) KeyBytes() uint64 { return b.keyBytes }

// Size returns the encoded entry bytes of those pairs.
func (b *SegmentBuilder) Size() int {
	if b.pairs == 0 {
		return 0
	}
	return len(b.img) - len(segMagic)
}

// Finish seals the pairs added since the last Finish, at least one,
// into a complete segment image and starts a new one. The image aliases
// the builder's buffer: it is valid until the next Add.
func (b *SegmentBuilder) Finish() []byte {
	img := binary.LittleEndian.AppendUint32(b.img, uint32(b.pairs))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
	b.img, b.pairs, b.keyBytes = img[:0], 0, 0
	return img
}

// writeSnapshotV2FS streams the pairs produced by scan into a segmented
// v2 snapshot for gen: segment files first (each atomic on its own),
// then a directory fsync so their entries are durable, then the footer
// via the atomic small-file path — the footer's rename is the single
// publish point, so a crash anywhere earlier leaves only invisible
// orphans (GC'd by the next snapshot) and the prior generation's chain
// intact. scan must yield keys in strictly ascending order.
func writeSnapshotV2FS(fsys vfs.FS, dir string, gen uint64, segBytes int, scan func(fn func(key, val []byte) bool)) (err error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	var (
		segs  []segMeta
		seg   SegmentBuilder
		first []byte
	)
	defer func() {
		if err != nil {
			// A failed snapshot must not leak half a generation: remove the
			// segments already renamed into place (the footer never existed,
			// so nothing was published).
			for i := range segs {
				fsys.Remove(segPath(dir, gen, i))
			}
		}
	}()
	flush := func() error {
		m := segMeta{pairs: seg.Pairs(), keyBytes: seg.KeyBytes(), firstKey: append([]byte(nil), first...)}
		img := seg.Finish()
		if err := writeFileSynced(fsys, segPath(dir, gen, len(segs)), img); err != nil {
			return err
		}
		// The file's own CRC covers magic+entries+count; the footer's crc
		// field covers the complete file including the trailer.
		m.fileBytes, m.crc = uint64(len(img)), crc32.Checksum(img, castagnoli)
		segs = append(segs, m)
		return nil
	}
	scan(func(key, val []byte) bool {
		if seg.Pairs() == 0 {
			first = append(first[:0], key...)
		}
		seg.Add(key, val)
		if seg.Size() >= segBytes {
			err = flush()
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if seg.Pairs() > 0 {
		if err = flush(); err != nil {
			return err
		}
	}
	// Segment directory entries must be durable BEFORE the footer that
	// references them: a real filesystem may persist renames out of order,
	// and a footer pointing at vanished segments would poison the newest
	// generation instead of falling back.
	if err = syncDirFS(fsys, dir); err != nil {
		return err
	}
	return WriteFileAtomicFS(fsys, snapPath(dir, gen), encodeSnapshotFooter(segs))
}

// encodeSnapshotFooter builds the v2 footer image.
func encodeSnapshotFooter(segs []segMeta) []byte {
	b := append([]byte(nil), snapMagic2...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(segs)))
	var total uint64
	for i := range segs {
		total += segs[i].pairs
	}
	b = binary.LittleEndian.AppendUint64(b, total)
	for i := range segs {
		m := &segs[i]
		b = binary.AppendUvarint(b, m.pairs)
		b = binary.AppendUvarint(b, m.fileBytes)
		b = binary.AppendUvarint(b, m.keyBytes)
		b = binary.LittleEndian.AppendUint32(b, m.crc)
		b = binary.AppendUvarint(b, uint64(len(m.firstKey)))
		b = append(b, m.firstKey...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// parseSnapshotFooter validates a v2 footer image and returns its
// segment index. Allocation is bounded by the payload length, never by
// the claimed counts. firstKey slices alias data.
func parseSnapshotFooter(data []byte) ([]segMeta, uint64, error) {
	if len(data) < len(snapMagic2)+4+8+snapTrailer || !bytes.Equal(data[:len(snapMagic2)], snapMagic2) {
		return nil, 0, errSnapshot
	}
	body, tr := data[:len(data)-snapTrailer], data[len(data)-snapTrailer:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tr) {
		return nil, 0, errSnapshot
	}
	nseg := binary.LittleEndian.Uint32(body[len(snapMagic2):])
	total := binary.LittleEndian.Uint64(body[len(snapMagic2)+4:])
	rest := body[len(snapMagic2)+4+8:]
	// Each entry takes >= 8 bytes (three 1-byte uvarints, the CRC, an
	// empty first key's length byte), so a hostile count cannot force a
	// large allocation.
	if uint64(nseg) > uint64(len(rest))/8 {
		return nil, 0, errSnapshot
	}
	segs := make([]segMeta, 0, nseg)
	var sum uint64
	for i := uint32(0); i < nseg; i++ {
		var m segMeta
		var n int
		if m.pairs, n = binary.Uvarint(rest); n <= 0 {
			return nil, 0, errSnapshot
		}
		rest = rest[n:]
		if m.fileBytes, n = binary.Uvarint(rest); n <= 0 {
			return nil, 0, errSnapshot
		}
		rest = rest[n:]
		if m.keyBytes, n = binary.Uvarint(rest); n <= 0 {
			return nil, 0, errSnapshot
		}
		rest = rest[n:]
		if len(rest) < 4 {
			return nil, 0, errSnapshot
		}
		m.crc = binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		fk, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, errSnapshot
		}
		rest = rest[n:]
		if fk > uint64(len(rest)) {
			return nil, 0, errSnapshot
		}
		m.firstKey = rest[:fk:fk]
		rest = rest[fk:]
		// A segment holds at least one pair (the writer never emits an
		// empty one), its file at least the magic and trailer, and segments
		// must be in strictly ascending key order.
		if m.pairs == 0 || m.fileBytes < uint64(len(segMagic)+segTrailer) {
			return nil, 0, errSnapshot
		}
		if len(segs) > 0 && bytes.Compare(segs[len(segs)-1].firstKey, m.firstKey) >= 0 {
			return nil, 0, errSnapshot
		}
		sum += m.pairs
		segs = append(segs, m)
	}
	if len(rest) != 0 || sum != total {
		return nil, 0, errSnapshot
	}
	return segs, total, nil
}

// DecodeSegment parses one segment image into ascending pairs. maxPairs
// and maxKeyBytes are budgets the caller vouches for — a snapshot
// footer's CRC'd claims, or a bound the replication follower computes
// itself: the decoder errors out the moment the data would exceed
// either, so a corrupt or hostile length can never make it allocate
// beyond them. Values alias data; keys are materialized into chunked
// arenas (a key with no shared prefix aliases data too), so allocation
// tracks bytes actually decoded, never a claimed length.
func DecodeSegment(data []byte, maxPairs, maxKeyBytes uint64) (keys, vals [][]byte, err error) {
	if len(data) < len(segMagic)+segTrailer || !bytes.Equal(data[:len(segMagic)], segMagic) {
		return nil, nil, errSnapshot
	}
	count := uint64(binary.LittleEndian.Uint32(data[len(data)-segTrailer:]))
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(data[:len(data)-4], castagnoli) != crc {
		return nil, nil, errSnapshot
	}
	rest := data[len(segMagic) : len(data)-segTrailer]
	// Each entry takes >= 3 bytes, so count is bounded by the body.
	if count > maxPairs || count > uint64(len(rest))/3 {
		return nil, nil, errSnapshot
	}
	keys = make([][]byte, 0, count)
	vals = make([][]byte, 0, count)
	var arena []byte
	var keyTotal uint64
	var prev []byte
	for i := uint64(0); i < count; i++ {
		plen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, errSnapshot
		}
		rest = rest[n:]
		slen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, errSnapshot
		}
		rest = rest[n:]
		vlen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, errSnapshot
		}
		rest = rest[n:]
		if plen > uint64(len(prev)) || slen > uint64(len(rest)) || vlen > uint64(len(rest))-slen {
			return nil, nil, errSnapshot
		}
		suffix := rest[:slen:slen]
		val := rest[slen : slen+vlen : slen+vlen]
		rest = rest[slen+vlen:]
		if keyTotal += plen + slen; keyTotal > maxKeyBytes {
			return nil, nil, errSnapshot
		}
		var key []byte
		if plen == 0 {
			if i > 0 && bytes.Compare(suffix, prev) <= 0 {
				return nil, nil, errSnapshot // not strictly ascending
			}
			key = suffix // no prefix to graft: alias the image bytes
		} else {
			// Strictly ascending == the suffix sorts after the previous
			// key's bytes past the shared prefix; no full-key compare.
			if bytes.Compare(suffix, prev[plen:]) <= 0 {
				return nil, nil, errSnapshot
			}
			need := int(plen) + len(suffix)
			if cap(arena)-len(arena) < need {
				arena = make([]byte, 0, max(1<<16, need))
			}
			off := len(arena)
			arena = append(arena, prev[:plen]...)
			arena = append(arena, suffix...)
			key = arena[off : off+need : off+need]
		}
		keys = append(keys, key)
		vals = append(vals, val)
		prev = key
	}
	if uint64(len(keys)) != count || len(rest) != 0 {
		return nil, nil, errSnapshot
	}
	return keys, vals, nil
}

// loadSnapshotV2FS loads a segmented snapshot whose footer bytes are
// already in hand: it validates the footer, stats every segment file
// against the footer's byte-exact claims BEFORE allocating anything
// sized by them, then fans read+decode out across `workers` goroutines
// (<= 0 means GOMAXPROCS), each filling a disjoint range of the shared
// result slices. Any defect — missing segment, size or CRC mismatch,
// first-key disagreement, out-of-order boundary — fails the whole load,
// and the caller falls back to an older generation: a snapshot stays
// all-or-nothing, only its insides got parallel.
func loadSnapshotV2FS(fsys vfs.FS, dir string, gen uint64, footer []byte, workers int) (keys, vals [][]byte, segs int, err error) {
	metas, total, err := parseSnapshotFooter(footer)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(metas) == 0 {
		return nil, nil, 0, nil
	}
	offsets := make([]uint64, len(metas)+1)
	var diskBytes uint64
	for i := range metas {
		fi, err := fsys.Stat(segPath(dir, gen, i))
		if err != nil || uint64(fi.Size()) != metas[i].fileBytes {
			return nil, nil, 0, errSnapshot
		}
		diskBytes += metas[i].fileBytes
		offsets[i+1] = offsets[i] + metas[i].pairs
	}
	// total was cross-checked against the per-segment sum by the footer
	// parse; bound it by the stat-verified on-disk bytes before sizing the
	// result slices (>= 3 bytes per pair, as in DecodeSegment).
	if total != offsets[len(metas)] || total > diskBytes/3 {
		return nil, nil, 0, errSnapshot
	}
	keys = make([][]byte, total)
	vals = make([][]byte, total)
	lastKeys := make([][]byte, len(metas))

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(metas))
	var (
		next int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	fail := func(e error) {
		mu.Lock()
		if err == nil {
			err = e
		}
		mu.Unlock()
	}
	loadSeg := func(i int) {
		m := &metas[i]
		data, rerr := fsys.ReadFile(segPath(dir, gen, i))
		if rerr != nil || uint64(len(data)) != m.fileBytes ||
			crc32.Checksum(data, castagnoli) != m.crc {
			fail(errSnapshot)
			return
		}
		sk, sv, derr := DecodeSegment(data, m.pairs, m.keyBytes)
		if derr != nil || uint64(len(sk)) != m.pairs || !bytes.Equal(sk[0], m.firstKey) {
			fail(errSnapshot)
			return
		}
		copy(keys[offsets[i]:offsets[i+1]], sk)
		copy(vals[offsets[i]:offsets[i+1]], sv)
		lastKeys[i] = sk[len(sk)-1]
	}
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if err != nil || next >= int64(len(metas)) {
			return -1
		}
		next++
		return int(next - 1)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				loadSeg(i)
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, nil, 0, err
	}
	// Segments decoded independently; the global order still needs the
	// boundaries checked (each segment's interior is ascending by
	// construction of its decoder).
	for i := 1; i < len(metas); i++ {
		if bytes.Compare(lastKeys[i-1], metas[i].firstKey) >= 0 {
			return nil, nil, 0, errSnapshot
		}
	}
	return keys, vals, len(metas), nil
}

// loadSnapshotFS reads generation gen's snapshot. A file in the retired
// v1 format fails with errRetiredSnapshot, naming the file, so Open can
// refuse it instead of falling back as it does past a corrupt one.
func loadSnapshotFS(fsys vfs.FS, dir string, gen uint64, workers int) (keys, vals [][]byte, segs int, err error) {
	path := snapPath(dir, gen)
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if bytes.HasPrefix(data, retiredSnapMagic) {
		return nil, nil, 0, fmt.Errorf("%s: %w", path, errRetiredSnapshot)
	}
	return loadSnapshotV2FS(fsys, dir, gen, data, workers)
}

// removeSegsBelow garbage-collects segment files of generations below
// keep — the v2 counterpart of removing old snap/wal files, which also
// sweeps orphans left by a snapshot that crashed before its footer.
func removeSegsBelow(fsys vfs.FS, dir string, keep uint64) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if gen, ok := parseSegName(e.Name()); ok && gen < keep {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// parseSegName extracts the generation from a snap-%016x-%05d.seg name.
func parseSegName(name string) (gen uint64, ok bool) {
	const pfx, sfx = "snap-", ".seg"
	// len("snap-") + 16 hex + "-" + 5 digits + len(".seg")
	if len(name) != len(pfx)+16+1+5+len(sfx) ||
		name[:len(pfx)] != pfx || name[len(name)-len(sfx):] != sfx || name[len(pfx)+16] != '-' {
		return 0, false
	}
	for _, c := range name[len(pfx) : len(pfx)+16] {
		gen <<= 4
		switch {
		case c >= '0' && c <= '9':
			gen |= uint64(c - '0')
		case c >= 'a' && c <= 'f':
			gen |= uint64(c-'a') + 10
		default:
			return 0, false
		}
	}
	for _, c := range name[len(pfx)+17 : len(name)-len(sfx)] {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	return gen, true
}

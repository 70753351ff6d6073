package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/repro/wormhole/internal/vfs"
)

// v1 snapshot files hold one key-ordered copy of the index in a single
// monolithic file. Snapshot writes only the segmented v2 format
// (segment.go); recovery still reads v1, so stores written by older
// builds open unchanged and upgrade on their next Snapshot. Layout:
//
//	[magic "WHSNAP1\n"][count uint64]
//	count × ([klen uvarint][vlen uvarint][key][val])
//	[crc32c uint32]
//
// The trailing CRC covers everything before it, including the header, so
// a truncated, bit-flipped or zero-extended snapshot never loads — the
// store falls back to an older generation or an empty index plus the WAL.
// Keys are stored in ascending order, so loading streams into the index's
// bulkload path without sorting.
var snapMagic = []byte("WHSNAP1\n")

const snapTrailer = 4

// errSnapshot marks an invalid snapshot file (any reason).
var errSnapshot = errors.New("wal: invalid snapshot")

// LoadSnapshot reads and validates a snapshot, returning its pairs in
// ascending key order, ready for bulkload. The returned slices alias one
// backing array read from disk (the index retains them, so one allocation
// holds the whole restored keyspace). Any structural defect — bad magic,
// CRC mismatch, count mismatch, truncated pair, keys out of order — yields
// an error and no pairs: a snapshot is all-or-nothing.
func LoadSnapshot(path string) (keys, vals [][]byte, err error) {
	return loadSnapshotFS(vfs.OS(), path)
}

// loadSnapshotFS is LoadSnapshot over an injectable filesystem.
func loadSnapshotFS(fsys vfs.FS, path string) (keys, vals [][]byte, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return loadSnapshotBytes(data)
}

// loadSnapshotBytes parses a v1 monolithic snapshot image.
func loadSnapshotBytes(data []byte) (keys, vals [][]byte, err error) {
	if len(data) < len(snapMagic)+8+snapTrailer || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, nil, errSnapshot
	}
	body, tr := data[:len(data)-snapTrailer], data[len(data)-snapTrailer:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tr) {
		return nil, nil, errSnapshot
	}
	count := binary.LittleEndian.Uint64(body[len(snapMagic):])
	rest := body[len(snapMagic)+8:]
	if count > uint64(len(rest)/2)+1 { // each pair past the first takes >= 2 length bytes
		return nil, nil, errSnapshot
	}
	keys = make([][]byte, 0, count)
	vals = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, errSnapshot
		}
		rest = rest[n:]
		vlen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, errSnapshot
		}
		rest = rest[n:]
		if klen > uint64(len(rest)) || vlen > uint64(len(rest))-klen {
			return nil, nil, errSnapshot
		}
		key := rest[:klen:klen]
		val := rest[klen : klen+vlen : klen+vlen]
		rest = rest[klen+vlen:]
		if len(keys) > 0 && bytes.Compare(keys[len(keys)-1], key) >= 0 {
			return nil, nil, errSnapshot // not strictly ascending
		}
		keys = append(keys, key)
		vals = append(vals, val)
	}
	if len(rest) != 0 {
		return nil, nil, errSnapshot
	}
	return keys, vals, nil
}

// syncDirFS fsyncs a directory so a just-created or just-renamed entry
// survives power loss. Best-effort on filesystems that reject directory
// fsync.
func syncDirFS(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}

// WriteFileAtomic writes data to path with full crash durability: temp
// file in the same directory, fsync, rename over path, directory fsync
// (tolerating filesystems that reject it, like syncDir). The shard
// layer's MANIFEST and the v2 snapshot footer use it.
func WriteFileAtomic(path string, data []byte) (err error) {
	return WriteFileAtomicFS(vfs.OS(), path, data)
}

// WriteFileAtomicFS is WriteFileAtomic over an injectable filesystem (the
// shard layer passes its configured FS through for the MANIFEST).
func WriteFileAtomicFS(fsys vfs.FS, path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return syncDirFS(fsys, dir)
}

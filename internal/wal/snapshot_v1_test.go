package wal

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"path/filepath"

	"github.com/repro/wormhole/internal/vfs"
)

// writeSnapshotFS is the v1 monolithic snapshot writer, kept as a test
// fixture: no production path writes v1 any more, but the loader still
// reads it, so the compatibility, fuzz and crash tests build v1 files
// with it. It streams the pairs produced by scan into path atomically:
// the bytes go to a temporary file in the same directory, are fsynced,
// and are renamed over path only when complete. scan must yield keys in
// strictly ascending order (the index's scan cursor does).
func writeSnapshotFS(fsys vfs.FS, path string, scan func(fn func(key, val []byte) bool)) (err error) {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()

	// The pair count is not known until the scan finishes: write a zero
	// placeholder, patch it afterwards, and compute the trailer CRC with
	// one sequential re-read of the file.
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if _, err = bw.Write(snapMagic); err != nil {
		return err
	}
	var cnt [8]byte
	if _, err = bw.Write(cnt[:]); err != nil {
		return err
	}
	var count uint64
	var scratch []byte
	scan(func(key, val []byte) bool {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(key)))
		scratch = binary.AppendUvarint(scratch, uint64(len(val)))
		if _, err = bw.Write(scratch); err != nil {
			return false
		}
		if _, err = bw.Write(key); err != nil {
			return false
		}
		if _, err = bw.Write(val); err != nil {
			return false
		}
		count++
		return true
	})
	if err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(cnt[:], count)
	if _, err = tmp.WriteAt(cnt[:], int64(len(snapMagic))); err != nil {
		return err
	}

	if _, err = tmp.Seek(0, io.SeekStart); err != nil {
		return err
	}
	h := crc32.New(castagnoli)
	if _, err = bufio.NewReaderSize(tmp, 1<<16).WriteTo(h); err != nil {
		return err
	}
	var tr [snapTrailer]byte
	binary.LittleEndian.PutUint32(tr[:], h.Sum32())
	if _, err = tmp.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	if _, err = tmp.Write(tr[:]); err != nil {
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
	return syncDirFS(fsys, filepath.Dir(path))
}

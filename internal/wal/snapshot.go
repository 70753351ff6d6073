package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/repro/wormhole/internal/vfs"
)

// errSnapshot marks an invalid snapshot file (any reason).
var errSnapshot = errors.New("wal: invalid snapshot")

// retiredSnapMagic opens a snapshot in the retired v1 format: one
// monolithic file of uncompressed pairs. Nothing reads or writes v1 any
// more, and Open refuses a directory whose snapshot is v1 instead of
// treating the file as corrupt: the corrupt-file fallback would read the
// WAL generations after it as a gap and remove them.
var retiredSnapMagic = []byte("WHSNAP1\n")

// errRetiredSnapshot is the refusal Open returns for a v1 snapshot.
var errRetiredSnapshot = errors.New("wal: snapshot is in the retired v1 format; " +
	"open the directory once with a build that reads v1 and take a Snapshot to rewrite it as v2")

// snapTrailer is the whole-file CRC32-C closing a snapshot footer.
const snapTrailer = 4

// syncDirFS fsyncs a directory so a just-created or just-renamed entry
// survives power loss. Best-effort on filesystems that reject directory
// fsync.
func syncDirFS(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}

// writeFileSynced puts data at path whole or not at all: temp file in
// the same directory, fsync, rename over path. The caller owes the
// directory fsync that makes the rename durable.
func writeFileSynced(fsys vfs.FS, path string, data []byte) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
	}
	return err
}

// WriteFileAtomicFS writes data to path with full crash durability:
// writeFileSynced, then a directory fsync (tolerating filesystems that
// reject it, like syncDirFS). The shard layer's MANIFEST and the
// snapshot footer use it.
func WriteFileAtomicFS(fsys vfs.FS, path string, data []byte) error {
	if err := writeFileSynced(fsys, path, data); err != nil {
		return err
	}
	return syncDirFS(fsys, filepath.Dir(path))
}

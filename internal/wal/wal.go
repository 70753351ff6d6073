// Package wal is the persistence subsystem: a length+CRC32C-framed,
// group-committed write-ahead log plus key-ordered snapshot files, and a
// Store that manages both for one index backend — rotation, snapshot
// truncation, and recovery that bulk-loads the newest valid snapshot then
// replays the WAL tail, stopping cleanly at the first torn or corrupt
// record.
//
// The durability contract is prefix semantics: after any crash, recovery
// reconstructs the state produced by some prefix of the operations in
// commit order — never a phantom key, never a partially applied record.
// How long that prefix is depends on the Sync policy: SyncAlways makes
// every returned operation part of it; SyncInterval bounds the loss to
// one flush interval; SyncNone leaves flushing to the OS page cache.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/vfs"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncNone never fsyncs on the append path; the OS flushes the page
	// cache at its leisure. Fastest, loses up to everything since the last
	// explicit Flush or Snapshot on power failure.
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every Interval
	// (default 100ms), bounding loss to one interval.
	SyncInterval
	// SyncAlways fsyncs before the store acknowledges each mutation (the
	// hook's Barrier phase). Concurrent writers share one fsync (group
	// commit): each waits only for a sync covering its own record, and
	// one syscall typically retires a whole convoy.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy maps the -sync flag spellings onto a policy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none", "":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNone, fmt.Errorf("wal: unknown sync policy %q (want none, interval or always)", s)
}

// DefaultInterval is the SyncInterval flush cadence when Options leaves it
// zero.
const DefaultInterval = 100 * time.Millisecond

// Record framing: every record is [payloadLen uint32][crc32c uint32]
// [payload]; the CRC (Castagnoli, the polynomial with hardware support on
// both amd64 and arm64) covers the payload only, so a torn length word, a
// torn payload and a zero-filled preallocated tail all fail validation.
// A zero-length record is invalid by construction — a zero-filled tail
// would otherwise frame as an endless run of empty records with CRC 0.
const (
	frameHeader = 8
	// maxRecord bounds a single record; larger lengths are treated as
	// corruption rather than an allocation request.
	maxRecord = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log or store.
var ErrClosed = errors.New("wal: closed")

// Log is an append-only record log over one file. Append is safe for
// concurrent use; the group-commit machinery makes SyncAlways scale with
// writer concurrency instead of paying one fsync per record.
type Log struct {
	policy   SyncPolicy
	interval time.Duration
	mx       *Metrics // nil records nothing

	mu     sync.Mutex // guards f, w, appended, err, closed
	f      vfs.File
	w      *bufio.Writer
	size   int64  // bytes framed so far (buffered + written)
	seq    uint64 // records appended
	err    error  // sticky I/O error; surfaces on Flush/Close
	closed bool

	// Group commit: synced is the highest seq known durable; syncMu admits
	// one syncing goroutine at a time while a convoy of appenders piles up
	// behind it, then each re-checks synced before syncing itself.
	synced atomic.Uint64
	syncMu sync.Mutex

	stop chan struct{}
	done chan struct{}
}

// openLog opens path for appending (creating it if needed) at offset off,
// which must be the validated record-prefix length — the file is truncated
// there so a torn tail is never appended after.
func openLog(fsys vfs.FS, path string, off int64, policy SyncPolicy, interval time.Duration, mx *Metrics) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	l := &Log{
		policy:   policy,
		interval: interval,
		mx:       mx,
		f:        f,
		w:        bufio.NewWriterSize(f, 1<<16),
		size:     off,
	}
	if policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Append frames payload onto the log buffer and returns the record's
// sequence number. It never blocks on storage — the caller decides
// whether to WaitDurable(seq) afterwards (the mutation-hook split: the
// append runs under the index's leaf lock to capture commit order, the
// durability wait runs after the lock is released). The first I/O error
// sticks: every later Append reports it, and no further bytes are
// written.
func (l *Log) Append(payload []byte) (seq uint64, err error) {
	if len(payload) == 0 || len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record length %d out of range", len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	var t0 time.Time
	if l.mx != nil {
		t0 = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = err
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.err = err
		return 0, err
	}
	l.size += int64(frameHeader + len(payload))
	l.seq++
	if l.mx != nil {
		l.mx.AppendSeconds.Observe(time.Since(t0))
		l.mx.AppendedBytes.Add(uint64(frameHeader + len(payload)))
		l.mx.AppendedRecords.Inc()
	}
	return l.seq, nil
}

// WaitDurable blocks until record seq is on stable storage, via the
// group commit: whichever waiter wins the sync mutex flushes and fsyncs
// on behalf of the whole convoy queued behind it.
func (l *Log) WaitDurable(seq uint64) error {
	return l.syncTo(seq)
}

// syncTo blocks until a sync covering record seq has completed — the group
// commit: whichever appender wins syncMu flushes and fsyncs on behalf of
// the whole convoy queued behind it, and the rest find synced already past
// their seq when they get in.
func (l *Log) syncTo(seq uint64) error {
	for l.synced.Load() < seq {
		l.syncMu.Lock()
		if l.synced.Load() >= seq {
			l.syncMu.Unlock()
			return nil
		}
		err := l.syncNow()
		l.syncMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// syncNow flushes the buffer and fsyncs; caller holds syncMu.
func (l *Log) syncNow() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	seq := l.seq
	err := l.w.Flush()
	if err != nil {
		l.err = err
	}
	f := l.f
	l.mu.Unlock()
	if err != nil {
		return err
	}
	// Fsync outside l.mu so appenders keep buffering during the syscall.
	if l.mx != nil {
		t0 := time.Now()
		defer func() {
			l.mx.FsyncSeconds.Observe(time.Since(t0))
			l.mx.Fsyncs.Inc()
		}()
	}
	if err := f.Sync(); err != nil {
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return err
	}
	if prev := l.synced.Load(); prev < seq {
		l.synced.CompareAndSwap(prev, seq)
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncNow()
}

// Size returns the framed byte length of the log (including buffered
// records not yet flushed to the file).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns how many records have been appended since the log was
// opened (buffered or not).
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// FlushBuffer pushes buffered records to the OS without fsyncing: enough
// for another reader of the same file (the replication sender) to see
// them, with none of the durability cost.
func (l *Log) FlushBuffer() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Close flushes, fsyncs and closes the file. Idempotent; concurrent
// Appends racing a Close may be dropped, which is the caller's
// serialization to prevent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	flushErr := l.w.Flush()
	if flushErr != nil && l.err == nil {
		l.err = flushErr
	}
	err := l.err
	f := l.f
	l.closed = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	if serr := f.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// replayFS streams every valid record of the file at path to fn, in
// order, stopping cleanly at the first torn or corrupt record (short
// header, length out of range, short payload, CRC mismatch) — corruption
// is the end of the log, not an error. It returns the byte length of the
// valid prefix; opening the log for appending at that offset truncates
// the garbage tail. fn returning an error aborts the replay and is
// returned verbatim. A missing file replays zero records.
func replayFS(fsys vfs.FS, path string, fn func(payload []byte) error) (validLen int64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [frameHeader]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header: end of log
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecord || int64(n) > size-off-frameHeader {
			// Zero-filled tail, garbage length, or a length running past
			// the file: never allocate on a corrupt length's say-so.
			return off, nil
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return off, nil // torn payload
		}
		if crc32.Checksum(buf, castagnoli) != crc {
			return off, nil // flipped bits
		}
		if err := fn(buf); err != nil {
			return off, err
		}
		off += int64(frameHeader) + int64(n)
	}
}

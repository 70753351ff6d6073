package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/vfs"
)

// Backend is the index surface the store persists: the mutation entry
// points it replays into, the bulkload fast path snapshots restore
// through, and the ordered scan snapshots are written from. core.Wormhole
// satisfies it directly.
type Backend interface {
	// Set inserts or replaces key. Key and value are copied; the caller
	// may reuse its buffers.
	Set(key, val []byte)
	// Del removes key, reporting whether it was present.
	Del(key []byte) bool
	// BulkLoad populates a fresh index from strictly ascending keys.
	BulkLoad(keys, vals [][]byte) error
	// Scan visits keys >= start ascending until fn returns false.
	Scan(start []byte, fn func(key, val []byte) bool)
}

// Options configures a Store.
type Options struct {
	// Sync selects the append-path durability policy.
	Sync SyncPolicy
	// Interval is the SyncInterval flush cadence (default DefaultInterval).
	Interval time.Duration
	// FS is the filesystem the store operates on; nil means the real OS
	// filesystem. Fault-injection tests swap in vfs implementations; the
	// OS path behaves exactly as it did before the abstraction.
	FS vfs.FS
	// HealMin and HealMax bound the self-healer's jittered exponential
	// backoff (defaults 50ms and 5s).
	HealMin, HealMax time.Duration
	// NoSelfHeal disables the background healer: a degraded store stays
	// degraded until an explicit Snapshot succeeds. Crash harnesses use
	// it to keep fault schedules deterministic.
	NoSelfHeal bool
	// SegmentBytes bounds one v2 snapshot segment's encoded size
	// (default DefaultSegmentBytes). Smaller segments mean more parallel
	// decode units on recovery at the cost of per-segment overhead.
	SegmentBytes int
	// DecodeWorkers caps the goroutines decoding v2 snapshot segments at
	// Open; <= 0 means GOMAXPROCS. Recovery is byte-identical at any
	// setting — workers fill disjoint ranges of the result.
	DecodeWorkers int
	// Metrics, when non-nil, arms append/fsync/commit-wait latency
	// histograms and byte/record/rotation counters. A sharded store
	// passes one bundle to every shard, so the series aggregate. Nil
	// costs nothing on the append path.
	Metrics *Metrics
}

// Store manages one backend's persistence directory: an active WAL, the
// newest snapshot, and the generation bookkeeping tying them together.
//
// Generations: wal-G holds the mutations logged while generation G was
// active; snap-G is written right after rotating into generation G and
// therefore covers every operation of generations < G (plus, possibly,
// some early-G operations — replay is idempotent, so re-applying them
// converges). Recovery loads the newest valid snapshot snap-G and replays
// wal-G, wal-G+1, ... in order; a snapshot garbage-collects every older
// file only after it is durably in place.
//
// OnSet and OnDel satisfy the core index's mutation-hook interface, so a
// Store registered as the hook logs every committed mutation. They cannot
// return errors; the first I/O failure sticks in the log and surfaces on
// the next Flush, Snapshot or Close.
type Store struct {
	dir string
	opt Options
	b   Backend
	fs  vfs.FS

	logMu sync.RWMutex // appenders share; rotation excludes
	log   *Log
	gen   uint64
	// base is the number of valid records already in the active WAL file
	// when its Log was opened; base + log.Records() is the file's record
	// ordinal count, the currency of replication Positions.
	base uint64

	// lock is the held LOCK file preventing a second process (or a second
	// Open in this one) from truncating and interleaving with a live WAL.
	lock io.Closer

	snapMu sync.Mutex // serializes Snapshot/Close
	closed atomic.Bool

	// failure is the first durability-compromising error (a failed append
	// or a failed rotation sync), stamped with the WAL generation it
	// happened in. Set/Del cannot report errors, so it is sticky and
	// surfaces on Err, Flush and Close — durable callers should check one
	// of those at their consistency points. A successful Snapshot clears
	// a failure from an older generation (the snapshot supersedes that
	// log history), never one from the generation it is writing alongside.
	failMu  sync.Mutex
	failure error
	failGen uint64

	// Degraded-mode state machine: degraded mirrors failure != nil with
	// one atomic for lock-free write-path checks, and the healer
	// goroutine (heal.go) retries snapshot+probe in the background until
	// an append round-trips again.
	degraded     atomic.Bool
	healMu       sync.Mutex
	healing      bool
	healAttempts int64
	lastHealErr  error
	healStop     chan struct{}
	healWG       sync.WaitGroup

	// Recovery statistics, fixed at Open.
	recoveredSnap int // pairs bulk-loaded from the snapshot
	recoveredTail int // WAL records replayed after it
	recoveredSegs int // segments decoded for it

	// Last replication position marker seen during replay, fixed at Open.
	recoveredPos    Position
	hasRecoveredPos bool
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", gen))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", gen))
}

// listGens returns the generation numbers of all files in dir matching
// prefix-%016x.suffix, ascending.
func listGens(fsys vfs.FS, dir, prefix, suffix string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		g, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // a temp file or foreign entry, not ours
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Open recovers the directory's persisted state into b — which must be a
// freshly created, empty index — and returns a store appending to the
// newest WAL generation. Recovery never fails on torn or corrupt data: it
// restores the longest valid prefix (newest loadable snapshot, then every
// WAL record up to the first invalid one), truncates the garbage tail so
// new appends extend the valid prefix, and discards any later generations
// whose ordering can no longer be trusted.
func Open(dir string, b Backend, opt Options) (*Store, error) {
	fsys := vfs.OrOS(opt.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Exactly one live store may own a directory: a second opener would
	// truncate the WAL to its on-disk prefix and interleave appends with
	// the first owner's buffered writer, corrupting acknowledged records.
	lock, err := acquireDirLock(fsys, dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opt: opt, b: b, fs: fsys, lock: lock, healStop: make(chan struct{})}
	fail := func(err error) (*Store, error) {
		releaseDirLock(lock)
		return nil, err
	}

	snaps, err := listGens(fsys, dir, "snap-", ".snap")
	if err != nil {
		return fail(err)
	}
	// Newest loadable snapshot wins; an invalid one — a damaged footer or
	// segment set (missing file, CRC flip, boundary lie) — falls back to
	// the next (normally none exists: each snapshot GCs its predecessors).
	// A retired-format snapshot is no such damage: Open refuses it and
	// touches nothing, where falling back would remove the WAL
	// generations after it as a gap.
	var snapGen uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		keys, vals, segs, err := loadSnapshotFS(fsys, dir, snaps[i], opt.DecodeWorkers)
		if errors.Is(err, errRetiredSnapshot) {
			return fail(err)
		}
		if err != nil {
			continue
		}
		if err := b.BulkLoad(keys, vals); err != nil {
			return fail(fmt.Errorf("wal: bulkload of %s: %w", snapPath(dir, snaps[i]), err))
		}
		snapGen = snaps[i]
		s.recoveredSnap = len(keys)
		s.recoveredSegs = segs
		break
	}

	wals, err := listGens(fsys, dir, "wal-", ".log")
	if err != nil {
		return fail(err)
	}
	// Replay every WAL generation the snapshot does not cover, oldest
	// first. The generations must be CONTIGUOUS from the snapshot (or
	// from 1 when no snapshot loaded): a gap means intermediate
	// generations were garbage-collected on the promise of a snapshot
	// that is now unreadable, so the surviving later logs would replay
	// onto a state missing their predecessors — resurrecting deleted
	// keys, losing untouched ones. Prefix semantics stops at the gap.
	// Within a file, the first invalid record ends recovery likewise:
	// the file is truncated at its valid prefix and every later
	// generation is dropped.
	appendGen := snapGen
	if appendGen == 0 {
		appendGen = 1
	}
	expect := appendGen
	var appendOff int64
	var appendSeq uint64
	for i, g := range wals {
		if g < snapGen {
			continue // covered by the snapshot; GC was interrupted
		}
		if g != expect {
			// Gap: everything from here on lacks its predecessors. Remove
			// the orphans too — left behind, a future recovery could see
			// them as contiguous with freshly created generations.
			for _, later := range wals[i:] {
				fsys.Remove(walPath(dir, later))
			}
			break
		}
		expect = g + 1
		var replayed int
		decodeOK := true
		validLen, err := replayFS(fsys, walPath(dir, g), func(payload []byte) error {
			op, key, val, derr := decodeRecord(payload)
			if derr != nil {
				decodeOK = false
				return derr
			}
			switch op {
			case opSet:
				b.Set(key, val) // the index copies; the replay buffer is reused
			case opDel:
				b.Del(key)
			case opPos:
				// A follower's applied-position marker: metadata, not a
				// mutation. decodeRecord validated it, so this cannot fail.
				p, _ := DecodePosition(payload)
				s.recoveredPos, s.hasRecoveredPos = p, true
			case opNoop:
				// A heal probe: occupies a record ordinal, applies nothing.
			case opEpoch:
				// A replication-epoch stamp: metadata like opPos; the
				// authoritative epoch is recovered from the MANIFEST.
			}
			replayed++
			return nil
		})
		// replayFS returns an error either from the callback (always a
		// decode failure here, flagged by decodeOK and handled as a tear
		// below) or from opening/statting the file itself — a real I/O
		// problem recovery must not paper over.
		if err != nil && decodeOK {
			return fail(err)
		}
		s.recoveredTail += replayed
		appendGen, appendOff, appendSeq = g, validLen, uint64(replayed)
		if !decodeOK || s.tornAt(g, validLen) {
			// Stop at the tear; generations beyond it are untrusted.
			for _, later := range wals[i+1:] {
				fsys.Remove(walPath(dir, later))
			}
			break
		}
	}

	// Seal the recovered generation and append into a fresh one. Reopening
	// mid-generation would let a restarted process regrow a crash-lost
	// unsynced tail in place: a replica that had applied the lost records
	// would see the same (gen,seq) ordinals carrying different mutations
	// and trust them. Sealing at the recovered prefix makes every restart
	// visible in the generation sequence — a replica holding a position
	// past the sealed file's frame count cannot resume there and falls
	// back to snapshot catch-up. Rotate only when the recovered
	// generation's file actually exists: when it does not (recovery
	// restarted the chain after dropping orphans), creating generation G+1
	// without wal-G on disk would reintroduce exactly the gap the
	// contiguity check above removes.
	if fi, err := fsys.Stat(walPath(dir, appendGen)); err == nil {
		if fi.Size() > appendOff {
			// Drop the torn tail now: the sealed file must be exactly the
			// record prefix recovery trusted, because replication skips
			// sealed segments by frame count.
			if err := sealRecoveredGen(fsys, walPath(dir, appendGen), appendOff); err != nil {
				return fail(err)
			}
		}
		appendGen++
		appendOff, appendSeq = 0, 0
	}

	s.gen = appendGen
	s.base = appendSeq
	log, err := openLog(fsys, walPath(dir, appendGen), appendOff, opt.Sync, opt.Interval, opt.Metrics)
	if err != nil {
		return fail(err)
	}
	// The WAL file (possibly just created) and any truncation must be
	// reachable after power loss before the first record is acknowledged.
	if err := syncDirFS(fsys, dir); err != nil {
		log.Close()
		return fail(err)
	}
	s.log = log
	return s, nil
}

// sealRecoveredGen truncates a recovered WAL file to its valid record
// prefix and fsyncs the cut, so the sealed generation holds exactly the
// records recovery replayed.
func sealRecoveredGen(fsys vfs.FS, path string, validLen int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// acquireDirLock takes an exclusive, non-blocking lock on dir/LOCK.
func acquireDirLock(fsys vfs.FS, dir string) (io.Closer, error) {
	lk, err := fsys.TryLock(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("wal: %s is locked by another live store: %w", dir, err)
	}
	return lk, nil
}

func releaseDirLock(lk io.Closer) {
	if lk != nil {
		lk.Close()
	}
}

// tornAt reports whether the WAL file for gen has bytes past the valid
// record prefix — a torn or corrupt tail.
func (s *Store) tornAt(gen uint64, validLen int64) bool {
	fi, err := s.fs.Stat(walPath(s.dir, gen))
	return err == nil && fi.Size() > validLen
}

// RecoveredPairs returns how many pairs the newest valid snapshot
// restored at Open; RecoveredRecords how many WAL records were replayed
// after it.
func (s *Store) RecoveredPairs() int   { return s.recoveredSnap }
func (s *Store) RecoveredRecords() int { return s.recoveredTail }

// RecoveredSegments returns how many snapshot segments the snapshot
// restored at Open decoded (0 when recovery started from an empty index
// or an empty snapshot).
func (s *Store) RecoveredSegments() int { return s.recoveredSegs }

// recordPool recycles mutation-record encode buffers: the append path
// runs inside every Set/Del, so it must not allocate per operation.
var recordPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// Tokens returned by OnSet/OnDel pack the WAL generation (high 24 bits)
// with the record's sequence in that generation (low 40 bits), so
// Barrier can tell whether the record's log is still active or was
// already made durable wholesale by a rotation, and so a later append
// always has the larger token.
const tokenSeqBits = 40

func packToken(gen, seq uint64) uint64 { return gen<<tokenSeqBits | seq&(1<<tokenSeqBits-1) }

// recordFailure keeps the first durability-compromising error, stamped
// with the generation it happened in, flips the store into degraded
// read-only mode, and kicks the self-healer.
func (s *Store) recordFailure(err error, gen uint64) {
	if err == nil || err == ErrClosed {
		return
	}
	if mx := s.opt.Metrics; mx != nil {
		mx.Failures.Inc()
	}
	s.failMu.Lock()
	if s.failure == nil {
		s.failure, s.failGen = err, gen
	}
	// The atomic mirror changes only under failMu, so it cannot be left
	// contradicting the failure it mirrors by a racing clear.
	s.degraded.Store(true)
	s.failMu.Unlock()
	s.ensureHealer()
}

// Err returns the first logging failure since Open (nil if none). A
// non-nil result means mutations since that point may not be recoverable;
// Flush, Snapshot and Close report the same condition.
func (s *Store) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failure
}

// appendRecord frames rec onto the active log and packs the token;
// shared by OnSet/OnDel. An append failure cannot be reported to the
// mutating caller (Set/Del have no error path), so it is recorded sticky
// and the token is 0 — Barrier then does not pretend the record is
// durable by waiting on nothing.
func (s *Store) appendRecord(rec []byte) uint64 {
	s.logMu.RLock()
	gen := s.gen
	seq, err := s.log.Append(rec)
	s.logMu.RUnlock()
	if err != nil {
		s.recordFailure(err, gen)
		return 0
	}
	return packToken(gen, seq)
}

// OnSet logs a committed insert or replace (the core mutation hook). It
// runs under the owning leaf's lock — commit order is append order — so
// it only buffers; the durability wait is Barrier's job.
func (s *Store) OnSet(key, val []byte) uint64 {
	if s.closed.Load() {
		return 0
	}
	bp := recordPool.Get().(*[]byte)
	rec := appendSetRecord((*bp)[:0], key, val)
	token := s.appendRecord(rec)
	*bp = rec[:0]
	recordPool.Put(bp)
	return token
}

// OnDel logs a committed delete (the core mutation hook); like OnSet it
// buffers under the leaf lock and defers the durability wait to Barrier.
func (s *Store) OnDel(key []byte) uint64 {
	if s.closed.Load() {
		return 0
	}
	bp := recordPool.Get().(*[]byte)
	rec := appendDelRecord((*bp)[:0], key)
	token := s.appendRecord(rec)
	*bp = rec[:0]
	recordPool.Put(bp)
	return token
}

// Barrier blocks until the mutation behind token is durable, per the
// configured sync policy (the core mutation hook's post-unlock phase).
// Under SyncAlways the wait joins the group commit; a token from an
// already-rotated generation returns immediately — rotation syncs and
// closes the old log before the new one takes over. Tokens are ordered
// (generation, then sequence), and a wait on one covers every smaller
// token: a lower sequence in the same generation lies inside the synced
// prefix, and a lower generation was synced when it rotated out.
func (s *Store) Barrier(token uint64) {
	if token == 0 || s.opt.Sync != SyncAlways || s.closed.Load() {
		return
	}
	gen, seq := token>>tokenSeqBits, token&(1<<tokenSeqBits-1)
	s.logMu.RLock()
	log := s.log
	current := s.gen == gen
	s.logMu.RUnlock()
	if current {
		if mx := s.opt.Metrics; mx != nil {
			t0 := time.Now()
			defer func() { mx.CommitWaitSeconds.Observe(time.Since(t0)) }()
		}
		if err := log.WaitDurable(seq); err != nil {
			// The record was appended but its fsync failed; the mutating
			// caller cannot be told, so the condition surfaces on
			// Err/Flush/Close.
			s.recordFailure(err, gen)
		}
	}
}

// Flush forces every logged record to stable storage, regardless of the
// sync policy, and surfaces any sticky logging failure (a failed append
// means mutations since that point are not in the log; only a successful
// Snapshot clears the condition, by superseding the log entirely).
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	return s.log.Sync()
}

// WALSize returns the framed byte length of the active WAL generation —
// the amount of data a recovery would replay record by record. Callers
// use it to decide when a Snapshot is worth taking.
func (s *Store) WALSize() int64 {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	return s.log.Size()
}

// Snapshot writes a key-ordered snapshot of the backend's current state
// and truncates the log: it rotates the WAL into a new generation, scans
// the index (lock-free; concurrent mutations keep logging into the new
// generation and replay idempotently over whatever state the scan
// captured), writes the snapshot atomically, and only then deletes the
// previous generation's files.
func (s *Store) Snapshot() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	t0 := time.Now()

	s.logMu.Lock()
	oldLog, oldGen := s.log, s.gen
	newGen := oldGen + 1
	newLog, err := openLog(s.fs, walPath(s.dir, newGen), 0, s.opt.Sync, s.opt.Interval, s.opt.Metrics)
	if err != nil {
		s.logMu.Unlock()
		return err
	}
	// Make the new file's directory entry durable before any record lands
	// in it, and sync+close the old generation BEFORE publishing the new
	// one: Barrier treats "the token's generation is no longer current"
	// as proof of durability, which only holds if rotation never exposes
	// a new generation while old records are still volatile. The old
	// generation then stays on disk, complete and synced, until the
	// snapshot that covers it is durably in place — a crash mid-snapshot
	// recovers from the previous snapshot plus both WAL generations.
	if err := syncDirFS(s.fs, s.dir); err != nil {
		newLog.Close()
		s.logMu.Unlock()
		return err
	}
	// A failed close means old-generation bytes may never have reached the
	// log; the in-memory index still holds every operation, so the
	// snapshot about to be written supersedes them. Record the failure
	// (Barrier must not treat the advanced generation as proof of
	// durability while it stands) and proceed — aborting would leave a
	// closed log installed and wedge all future logging.
	closeErr := oldLog.Close()
	s.recordFailure(closeErr, oldGen)
	s.log, s.gen, s.base = newLog, newGen, 0
	s.logMu.Unlock()
	if mx := s.opt.Metrics; mx != nil {
		mx.Rotations.Inc()
	}

	scan := func(fn func(k, v []byte) bool) { s.b.Scan(nil, fn) }
	if err = writeSnapshotV2FS(s.fs, s.dir, newGen, s.opt.SegmentBytes, scan); err != nil {
		return errors.Join(closeErr, err)
	}
	// The durable snapshot covers every mutation of the generations before
	// it — including any whose log append or log sync had failed — so an
	// old-generation sticky failure is healed. A failure stamped with the
	// new generation stands: its mutation raced the scan and may be in
	// neither the snapshot nor the log.
	s.failMu.Lock()
	if s.failure != nil && s.failGen < newGen {
		s.failure = nil
	}
	if s.failure == nil {
		// Back to writable: the snapshot supersedes the poisoned history.
		s.degraded.Store(false)
	}
	s.failMu.Unlock()

	// GC everything older than the new generation.
	snaps, _ := listGens(s.fs, s.dir, "snap-", ".snap")
	for _, g := range snaps {
		if g < newGen {
			s.fs.Remove(snapPath(s.dir, g))
		}
	}
	wals, _ := listGens(s.fs, s.dir, "wal-", ".log")
	for _, g := range wals {
		if g < newGen {
			s.fs.Remove(walPath(s.dir, g))
		}
	}
	// Old generations' segment files — including orphans from a snapshot
	// that crashed before publishing its footer.
	removeSegsBelow(s.fs, s.dir, newGen)
	if mx := s.opt.Metrics; mx != nil {
		mx.Snapshots.Inc()
		mx.SnapshotSeconds.Observe(time.Since(t0))
	}
	return nil
}

// Close flushes and closes the active WAL, reporting any sticky logging
// failure alongside. Further mutations on the backend are no longer
// logged (OnSet/OnDel become no-ops); in-flight reads and scans of the
// in-memory index are unaffected. Idempotent.
func (s *Store) Close() error {
	s.snapMu.Lock()
	if s.closed.Swap(true) {
		s.snapMu.Unlock()
		return nil
	}
	s.logMu.Lock()
	err := errors.Join(s.Err(), s.log.Close())
	releaseDirLock(s.lock)
	s.lock = nil
	s.logMu.Unlock()
	s.snapMu.Unlock()
	// Stop the healer only after releasing the locks: an in-flight heal
	// attempt may be blocked on snapMu inside Snapshot and must get in to
	// observe the closed store before the wait below can finish.
	close(s.healStop)
	s.healMu.Lock() // any in-flight ensureHealer has added itself or seen closed
	s.healMu.Unlock()
	s.healWG.Wait()
	return err
}

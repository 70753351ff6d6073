package core

// MutationHook observes every committed mutation of the index, in commit
// order: OnSet as an insert or replace lands, OnDel as a present key's
// removal lands (a delete of an absent key is not a mutation and is not
// reported). Both run with the owning leaf's lock (and, on structural
// paths, the meta writer lock) still held — that lock is what serializes
// same-key mutations, so calling under it is the only way a log can
// record the order the index actually committed. Implementations must
// therefore be fast and non-blocking: a buffered append, not an fsync.
//
// The returned token flows to Barrier after the index has released all
// its locks; Barrier may block (e.g. on a group-committed fsync) until
// the observed mutation is durable, without stalling readers or writers
// on other leaves. Set and Del call Barrier before returning; SetNoWait
// and DelNoWait hand the token to the caller instead, so a batch of
// mutations can wait once. Tokens must therefore be ordered: Barrier on
// a token must also cover every smaller token the same hook returned, so
// waiting on the largest token of a batch makes the whole batch durable.
// A token of 0 means there is nothing to wait for (the hook needs no
// durability wait, or the append failed and was recorded); Barrier is
// never called with it.
//
// Hooks do not fire during BulkLoad: bulk loading is the recovery path,
// and recovery must not re-log what it replays.
type MutationHook interface {
	OnSet(key, val []byte) (token uint64)
	OnDel(key []byte) (token uint64)
	// Barrier blocks until the mutation identified by token, and every
	// mutation with a smaller token, is durable per the hook's policy.
	// Called outside all index locks.
	Barrier(token uint64)
}

// SetMutationHook installs h (nil removes it). It must be called before
// the index is shared between goroutines — typically right after New or
// after recovery, before serving traffic — because installation is not
// synchronized against in-flight mutations.
func (w *Wormhole) SetMutationHook(h MutationHook) { w.hook = h }

// logSet reports a committed set to the hook; the caller holds the locks
// that serialized the mutation.
func (w *Wormhole) logSet(key, val []byte) uint64 {
	if w.hook == nil {
		return 0
	}
	return w.hook.OnSet(key, val)
}

// logDel reports a committed delete to the hook; the caller holds the
// locks that serialized the mutation.
func (w *Wormhole) logDel(key []byte) uint64 {
	if w.hook == nil {
		return 0
	}
	return w.hook.OnDel(key)
}

// Barrier waits out the hook's durability policy for token (from
// SetNoWait or DelNoWait) and every smaller token. Call it with no index
// lock held.
func (w *Wormhole) Barrier(token uint64) {
	if w.hook != nil && token != 0 {
		w.hook.Barrier(token)
	}
}

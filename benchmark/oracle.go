package main

import (
	"bytes"
	"fmt"
)

// scanCheck is the scan oracle. Stable keys are never deleted, and each
// one's value carries its rank in sorted order, so a scan from stable rank
// s must yield ranks s, s+1, ... (or s, s-1, ... descending) with no gap;
// churn keys may appear between them, in strict order. It checks scanLen
// pairs and then stops the scan.
type scanCheck struct {
	d    *dataset
	dir  int // +1 ascending, -1 descending
	want int // rank of the next stable key the scan must yield
	n    int // pairs seen
	prev []byte
	bad  string
}

func (c *scanCheck) stableKey(rank int) []byte { return c.d.keys[c.d.sorted[rank]] }

// begin arms the check for a scan near stable rank s, moved inward so that
// scanLen stable keys exist in the scan's direction, and returns the key to
// start from.
func (c *scanCheck) begin(s int, desc bool) []byte {
	c.dir = 1
	if desc {
		c.dir = -1
		s = max(s, min(scanLen, c.d.stable)-1)
	} else {
		s = min(s, max(c.d.stable-scanLen, 0))
	}
	c.want, c.n, c.prev, c.bad = s, 0, nil, ""
	return c.stableKey(s)
}

func (c *scanCheck) visit(k, v []byte) bool {
	c.n++
	switch {
	case len(v) != valLen:
		c.bad = fmt.Sprintf("pair %d: value of %d bytes", c.n, len(v))
	case valWord(v) == noRank: // a churn key
		if valTag(v) != keyHash(k) {
			c.bad = fmt.Sprintf("pair %d: churn key %q carries another key's value", c.n, k)
		} else if c.prev != nil && bytes.Compare(k, c.prev)*c.dir <= 0 {
			c.bad = fmt.Sprintf("pair %d: %q does not follow %q", c.n, k, c.prev)
		} else if c.want >= 0 && c.want < c.d.stable && bytes.Compare(k, c.stableKey(c.want))*c.dir >= 0 {
			c.bad = fmt.Sprintf("pair %d: stable key %q (rank %d) skipped", c.n, c.stableKey(c.want), c.want)
		}
	default:
		rank := int(valWord(v))
		if rank != c.want {
			c.bad = fmt.Sprintf("pair %d: stable rank %d, want %d (skipped, repeated or out of order)", c.n, rank, c.want)
		} else if !bytes.Equal(k, c.stableKey(rank)) || valTag(v) != c.d.tags[c.d.sorted[rank]] {
			c.bad = fmt.Sprintf("pair %d: key %q does not match its value (rank %d)", c.n, k, rank)
		}
		c.want += c.dir
	}
	c.prev = k
	return c.bad == "" && c.n < scanLen
}

// end returns what was wrong with the scan, or "".
func (c *scanCheck) end() string {
	if c.bad == "" && c.n != min(scanLen, c.d.stable) {
		return fmt.Sprintf("scan ended after %d pairs, want %d", c.n, scanLen)
	}
	return c.bad
}

// versions is one generator's record of the writes it was acked: ver[i] is
// the last version it set on stable key i. Writers own disjoint keys (key
// i belongs to generator i mod gens), so the store must hold exactly that
// version once the run is over.
type versions struct {
	g, gens int
	ver     []uint32
}

func (vs *versions) owns(idx uint32) bool { return int(idx)%vs.gens == vs.g }

// own maps a drawn key to one this generator may write.
func (vs *versions) own(idx uint32) uint32 {
	o := int(idx) - int(idx)%vs.gens + vs.g
	if o >= len(vs.ver) {
		o -= vs.gens
	}
	return uint32(o)
}

// readBack checks every stable key against the writers' records through
// get, and reports how many it checked and how many were wrong: missing,
// another key's value, or not the last acked version.
func readBack(r *run, where string, all []*versions, get func(k []byte) ([]byte, bool)) (attempted, failed int64) {
	d := r.data
	for i := 0; i < d.stable; i++ {
		v, ok := get(d.keys[i])
		attempted++
		vs := all[i%len(all)]
		if !goodVal(v, ok, d.tags[i]) {
			failed++
			r.failf("%s: key %d found=%v value %x", where, i, ok, v)
		} else if got := valWord(v); got != uint64(vs.ver[i]) {
			failed++
			r.failf("%s: key %d holds version %d, last acked write was %d", where, i, got, vs.ver[i])
		}
	}
	return attempted, failed
}

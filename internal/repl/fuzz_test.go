package repl

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// FuzzSubscribeHandshake throws arbitrary bytes at the subscribe-payload
// decoder — the one parser on the leader that consumes follower-supplied
// input before any authentication of intent. It must never panic or
// balloon memory on hostile counts, and anything it accepts must be
// canonical: re-encoding the decoded values reproduces the input byte for
// byte, so there is exactly one wire form per logical handshake.
func FuzzSubscribeHandshake(f *testing.F) {
	f.Add(encodeSubscribe(0, nil, nil, nil))
	f.Add(encodeSubscribe(1, []shard.EpochEntry{{Epoch: 1}}, []wal.Position{{Gen: 1, Seq: 0}}, nil))
	hist := []shard.EpochEntry{
		{Epoch: 1},
		{Epoch: 4, Start: []wal.Position{{Gen: 2, Seq: 17}, {Gen: 1, Seq: 3}, {Gen: 5, Seq: 1 << 33}}},
	}
	full := encodeSubscribe(7, hist, []wal.Position{{Gen: 3, Seq: 99}, {Gen: 1, Seq: 0}}, nil)
	f.Add(full)
	withResume := encodeSubscribe(7, hist, []wal.Position{{Gen: 3, Seq: 99}, {Gen: 1, Seq: 0}},
		[]snapResume{
			{shard: 0, pos: wal.Position{Gen: 3, Seq: 12}, cursor: []byte("user/0042\x00")},
			{shard: 1, pos: wal.Position{Gen: 1, Seq: 0}, cursor: []byte{0x00}},
		})
	f.Add(withResume)
	f.Add(withResume[:len(withResume)-1])           // truncated resume cursor
	f.Add(full[:len(full)-1])                       // truncated resume count
	f.Add(full[:len(magic)+1])                      // header only
	f.Add([]byte("WHRPX\x03junk"))                  // bad magic
	f.Add(append(full[:0:0], full...)[:len(magic)]) // magic alone
	f.Add(bytes.Repeat([]byte{0xff}, 64))           // hostile counts

	f.Fuzz(func(t *testing.T, payload []byte) {
		epoch, hist, positions, resume, err := decodeSubscribe(payload)
		if err != nil {
			return
		}
		out := encodeSubscribe(epoch, hist, positions, resume)
		if !bytes.Equal(out, payload) {
			t.Fatalf("accepted non-canonical payload:\n in  %x\n out %x", payload, out)
		}
		// And the canonical form must round-trip to the same values.
		e2, h2, p2, r2, err := decodeSubscribe(out)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if e2 != epoch || !shard.HistoryEqual(h2, hist) || len(p2) != len(positions) {
			t.Fatalf("round trip changed values: %d/%v/%v -> %d/%v/%v",
				epoch, hist, positions, e2, h2, p2)
		}
		for i := range p2 {
			if p2[i] != positions[i] {
				t.Fatalf("position %d changed: %v -> %v", i, positions[i], p2[i])
			}
		}
		if len(r2) != len(resume) {
			t.Fatalf("resume count changed: %d -> %d", len(resume), len(r2))
		}
		for i := range r2 {
			if r2[i].shard != resume[i].shard || r2[i].pos != resume[i].pos ||
				!bytes.Equal(r2[i].cursor, resume[i].cursor) {
				t.Fatalf("resume %d changed: %+v -> %+v", i, resume[i], r2[i])
			}
		}
	})
}

// FuzzSnapChunk throws arbitrary msgSnapChunk bodies at the follower's
// chunk decoder, the one parser that turns leader bytes into pairs the
// follower applies: raw, and with the segment image's CRC made valid so
// the fuzzer reaches the entries behind it. It must never panic, and a
// chunk it accepts must be strictly ascending and within the key budget
// the follower sets itself.
func FuzzSnapChunk(f *testing.F) {
	snapChunks(1, func(fn func(k, v []byte) bool) {
		for i, k := range urlKeys(40) {
			if !fn(k, []byte{byte(i)}) {
				return
			}
		}
	}, func(body []byte) bool {
		f.Add(append([]byte(nil), body...)) // a real leader chunk
		return true
	})
	amp := amplifyingChunk(9000)
	f.Add(amp)
	for _, n := range []int{len(amp) - 1, len(amp) / 2, 10, 2, 1, 0} {
		f.Add(amp[:n])
	}

	check := func(t *testing.T, body []byte) {
		t.Helper()
		_, keys, vals, err := decodeSnapChunk(body)
		if err != nil {
			return
		}
		if len(keys) != len(vals) {
			t.Fatalf("%d keys but %d vals", len(keys), len(vals))
		}
		var kb uint64
		for i, k := range keys {
			kb += uint64(len(k))
			if i > 0 && bytes.Compare(keys[i-1], k) >= 0 {
				t.Fatalf("accepted chunk with unsorted keys at %d", i)
			}
		}
		if kb > max(maxChunkKeyBytes, uint64(len(body))) {
			t.Fatalf("accepted chunk decoding to %d key bytes from %d", kb, len(body))
		}
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, body []byte) {
		check(t, body)
		if len(body) < 2+4 {
			return
		}
		fixed := append([]byte(nil), body[:len(body)-4]...)
		fixed = binary.LittleEndian.AppendUint32(fixed, crc32.Checksum(fixed[2:], castagnoli))
		check(t, fixed)
	})
}

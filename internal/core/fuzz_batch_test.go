package core

import (
	"bytes"
	"testing"
)

// fuzzLongKey is the shared head a fuzz key gets when its length byte has
// bit 0x40 set: 70 bytes, so leaves' fence prefixes grow past the batched
// read path's 64-byte eager hash array, and short fuzz bytes still steer
// the suffixes behind them.
var fuzzLongKey = bytes.Repeat([]byte("wormhole/"), 8)[:70]

// fuzzKey builds a fuzz key from its length byte and its bytes.
func fuzzKey(lenByte byte, b []byte) []byte {
	if lenByte&0x40 != 0 {
		return append(bytes.Clone(fuzzLongKey), b...)
	}
	return append([]byte(nil), b...)
}

// FuzzBatchGet interprets the fuzz input as a mutation stream replayed
// into a small-leaf index and a map oracle, then as a batch of lookup
// keys — drawn from the same bytes, so the fuzzer can steer shared
// prefixes, duplicates within the batch, and near-miss keys — and
// cross-checks GetBatch against both the oracle and sequential scalar
// Gets at several interleave depths, down to a single lane. A length
// byte with bit 0x40 set puts fuzzLongKey in front of its key.
func FuzzBatchGet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02ab\x02ab\xff\x02ab\x02ac"))
	f.Add(bytes.Repeat([]byte{3, 'k', 'e', 'y'}, 30))
	seed := []byte{}
	for i := byte(0); i < 40; i++ {
		seed = append(seed, 2, 'p', i) // distinct two-byte keys under one prefix
	}
	seed = append(seed, 0xff)
	for i := byte(0); i < 40; i += 2 {
		seed = append(seed, 2, 'p', i) // batch: every other key, plus misses below
		seed = append(seed, 3, 'p', i, 'x')
	}
	f.Add(seed)
	seed = nil
	for i := byte(0); i < 40; i++ {
		seed = append(seed, 0x40|3, 'q', i, i) // keys behind a 70-byte shared prefix
		seed = append(seed, 2, 'q', i)         // and short ones beside them
	}
	seed = append(seed, 0xff)
	for i := byte(0); i < 40; i += 3 {
		seed = append(seed, 0x40|3, 'q', i, i, 0x40|2, 'q', i, 0x40|4, 'q', i, i, 0)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		o := DefaultOptions()
		o.LeafCap = 8 // force splits within short streams
		w := New(o)
		model := map[string]string{}

		// Phase 1 (until a 0xff byte or half the input): mutations. A
		// length byte then key bytes; length 0 deletes the previous key.
		in := data
		take := func(n int) []byte {
			if n > len(in) {
				n = len(in)
			}
			b := in[:n]
			in = in[n:]
			return b
		}
		var last []byte
		for len(in) > 0 && in[0] != 0xff {
			lb := in[0]
			klen := int(lb % 8)
			in = in[1:]
			if klen == 0 {
				if last != nil {
					w.Del(last)
					delete(model, string(last))
				}
				continue
			}
			key := fuzzKey(lb, take(klen))
			val := append([]byte(nil), key...)
			val = append(val, '=')
			w.Set(key, val)
			model[string(key)] = string(val)
			last = key
		}
		if len(in) > 0 {
			in = in[1:] // the 0xff separator
		}

		// Phase 2: the batch. Keys come from the remaining bytes; a zero
		// length duplicates the previous batch entry.
		var batch [][]byte
		for len(in) > 0 && len(batch) < 256 {
			lb := in[0]
			klen := int(lb % 8)
			in = in[1:]
			if klen == 0 && len(batch) > 0 {
				batch = append(batch, batch[len(batch)-1])
				continue
			}
			batch = append(batch, fuzzKey(lb, take(klen)))
		}
		if len(batch) == 0 {
			batch = append(batch, []byte{}, []byte("absent"))
		}

		vals := make([][]byte, len(batch))
		found := make([]bool, len(batch))
		for _, depth := range []int32{1, 2, defaultBatchDepth, maxBatchLanes} {
			w.batchDepth.Store(depth)
			for i := range vals {
				vals[i], found[i] = nil, false
			}
			w.GetBatchInto(batch, vals, found, nil)
			for i, k := range batch {
				mv, mok := model[string(k)]
				if found[i] != mok || (mok && string(vals[i]) != mv) {
					t.Fatalf("depth %d: GetBatch[%d](%x) = %q,%v want %q,%v",
						depth, i, k, vals[i], found[i], mv, mok)
				}
				sv, sok := w.Get(k)
				if found[i] != sok || !bytes.Equal(vals[i], sv) {
					t.Fatalf("depth %d: GetBatch[%d](%x) = %q,%v but Get = %q,%v",
						depth, i, k, vals[i], found[i], sv, sok)
				}
			}
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

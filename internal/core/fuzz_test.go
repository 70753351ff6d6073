package core

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzSetGetScan interprets the fuzz input as an operation stream over a
// small-leaf index (splits and merges trigger within a few dozen ops) and
// cross-checks every result against a map model, ending with a full-scan
// equivalence pass. Keys are drawn from the input bytes themselves so the
// fuzzer can steer collisions, shared prefixes and boundary keys; a length
// byte with bit 0x40 set puts fuzzLongKey in front of its key.
func FuzzSetGetScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01ab\x02ab\x01ab"))
	f.Add([]byte("set a 1, del a, scan"))
	f.Add(bytes.Repeat([]byte{0x00, 0x03, 'k', 0xff}, 40))
	seed := []byte{}
	for i := byte(0); i < 60; i++ {
		seed = append(seed, 0x00, 2, 'k', i) // sets of distinct keys
	}
	f.Add(seed)
	seed = nil
	for i := byte(0); i < 60; i++ {
		seed = append(seed, 0x00, 0x40|2, 'k', i) // sets behind a 70-byte shared prefix
		if i%5 == 0 {
			seed = append(seed, 0x01, 0x40|2, 'k', i-i/2) // deletes, so leaves merge
		}
	}
	seed = append(seed, 0x03, 0x40|1, 'k', 0x02, 0x40|0, 'k')
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		o := DefaultOptions()
		o.LeafCap = 8 // force structural churn on short streams
		w := New(o)
		model := map[string]string{}

		in := data
		next := func(n int) []byte {
			if n > len(in) {
				n = len(in)
			}
			b := in[:n]
			in = in[n:]
			return b
		}
		for len(in) >= 2 {
			op, lb := in[0]%4, in[1]
			klen := int(lb%8) + 1
			in = in[2:]
			key := fuzzKey(lb, next(klen))
			switch op {
			case 0: // set
				val := append([]byte(nil), next(3)...)
				w.Set(key, val)
				model[string(key)] = string(val)
			case 1: // del
				got := w.Del(key)
				_, want := model[string(key)]
				if got != want {
					t.Fatalf("Del(%x) = %v want %v", key, got, want)
				}
				delete(model, string(key))
			case 2: // get
				v, ok := w.Get(key)
				mv, mok := model[string(key)]
				if ok != mok || (ok && string(v) != mv) {
					t.Fatalf("Get(%x) = %q,%v want %q,%v", key, v, ok, mv, mok)
				}
			case 3: // bounded scan from key
				var got []string
				w.Scan(key, func(k, v []byte) bool {
					got = append(got, string(k))
					return len(got) < 5
				})
				var want []string
				for mk := range model {
					if mk >= string(key) {
						want = append(want, mk)
					}
				}
				sort.Strings(want)
				if len(want) > 5 {
					want = want[:5]
				}
				if len(got) != len(want) {
					t.Fatalf("scan(%x) len %d want %d", key, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("scan(%x)[%d] = %x want %x", key, i, got[i], want[i])
					}
				}
			}
		}

		// Full-scan equivalence: exactly the model, in order.
		if int(w.Count()) != len(model) {
			t.Fatalf("Count %d, model %d", w.Count(), len(model))
		}
		var prev []byte
		seen := 0
		w.Scan(nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("scan out of order: %x then %x", prev, k)
			}
			prev = append(prev[:0], k...)
			if model[string(k)] != string(v) {
				t.Fatalf("scan pair %x=%q diverges from model %q", k, v, model[string(k)])
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("full scan saw %d keys, model has %d", seen, len(model))
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

package core

import "hash/crc32"

// Wormhole hashes keys and anchor prefixes with CRC32-C (Castagnoli), the
// same function the paper's implementation uses (§3.1, footnote 2). CRC is
// incremental: the hash of prefix[:n] can be extended to the hash of
// prefix[:n+k] without rehashing the first n bytes, which is what
// incremental hashing (§3.1) exploits during the binary search on prefix
// lengths.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hashKey returns the CRC32-C of key.
func hashKey(key []byte) uint32 {
	return crc32.Update(0, crcTable, key)
}

// hashExtend extends the CRC of a shorter prefix by ext, so that
// hashExtend(hashKey(a), b) == hashKey(append(a, b...)).
func hashExtend(h uint32, ext []byte) uint32 {
	return crc32.Update(h, crcTable, ext)
}

// hashExtendByte is hashExtend for a single token, open-coded so the
// child probe of searchMeta needs no byte-slice argument (the one-element
// array previously used here escaped into crc32.Update — the read path's
// only heap allocation). CRC32 pre- and post-inverts, so one table step
// on the inverted value matches crc32.Update for one byte.
func hashExtendByte(h uint32, b byte) uint32 {
	c := ^h
	return ^(crcTable[byte(c)^b] ^ (c >> 8))
}

// metaTag derives the 16-bit slot tag from a prefix hash. The bucket index
// consumes the low bits of the hash, so the tag uses the high half to stay
// independent of bucket placement (Figure 6).
func metaTag(h uint32) uint16 {
	return uint16(h >> 16)
}

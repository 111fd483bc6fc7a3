package wire

// AppendBits appends an n-bit map to dst as ⌈n/64⌉ words, bit i being bit
// i%64 of word i/64, set when set(i) holds. set is called once per bit, for
// i = 0 … n−1 in order.
func AppendBits(dst []uint64, n int, set func(i int) bool) []uint64 {
	at := len(dst)
	dst = append(dst, make([]uint64, (n+63)/64)...)
	for i := range n {
		if set(i) {
			dst[at+i/64] |= 1 << (i % 64)
		}
	}
	return dst
}

// Bit reports whether bit i of a map written by AppendBits is set; a bit
// past the last word is clear.
func Bit(words []uint64, i int) bool {
	return i/64 < len(words) && words[i/64]>>(i%64)&1 == 1
}

package quantile

// Round-build messages as values. A round build's separators and counts
// travel as the words these functions write; the meter records their length
// and the receiving half reads only what they decode to.

// up meters site j's reply of the given kind, words long.
func (p *policy) up(j int, kind string, words []uint64) {
	p.eng.Meter().Up(j, kind, len(words))
	if p.tap != nil {
		p.tap(kind, j, words)
	}
}

// down meters a coordinator message of the given kind to site j.
func (p *policy) down(j int, kind string, words []uint64) {
	p.eng.Meter().Down(j, kind, len(words))
	if p.tap != nil {
		p.tap(kind, j, words)
	}
}

// encodeSeps appends the "seps" message of a cut made from scratch, which a
// site without separators receives: the separators, one word each.
func encodeSeps(dst, seps []uint64) []uint64 { return append(dst, seps...) }

// decodeSeps returns the separators of a "seps" message from encodeSeps.
func decodeSeps(words []uint64) []uint64 { return append([]uint64(nil), words...) }

// encodeKeep appends the "seps" message of a merge, which a site holding the
// old separators receives: bit i of word i/64 is set when old separator i is
// kept, ⌈L/64⌉ words for L old separators.
func encodeKeep(dst []uint64, keep []bool) []uint64 {
	n := len(dst)
	dst = append(dst, make([]uint64, (len(keep)+63)/64)...)
	for i, k := range keep {
		if k {
			dst[n+i/64] |= 1 << (i % 64)
		}
	}
	return dst
}

// decodeKeep returns the separators of old that a merge's "seps" message
// keeps, in order.
func decodeKeep(old, words []uint64) []uint64 {
	var seps []uint64
	for i, v := range old {
		if words[i/64]&(1<<(i%64)) != 0 {
			seps = append(seps, v)
		}
	}
	return seps
}

// encodeCounts appends a site's "round-counts" reply: its exact count in
// each interval of the ending round, L + 1 words for L separators.
func encodeCounts(dst []uint64, counts []int64) []uint64 {
	for _, c := range counts {
		dst = append(dst, uint64(c))
	}
	return dst
}

// decodeCounts returns the interval counts of a "round-counts" reply.
func decodeCounts(words []uint64) []int64 {
	counts := make([]int64, len(words))
	for i, w := range words {
		counts[i] = int64(w)
	}
	return counts
}

// encodeSplit appends the "split-apply" message that installs separator y
// inside interval iv: the index and the value, 2 words.
func encodeSplit(dst []uint64, iv int, y uint64) []uint64 { return append(dst, uint64(iv), y) }

// decodeSplit returns the interval index and separator of a "split-apply"
// message from encodeSplit.
func decodeSplit(words []uint64) (iv int, y uint64) { return int(words[0]), words[1] }

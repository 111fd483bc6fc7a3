package sitestore

// EncodeRanks appends the rank-per-boundary reply of a site whose store is
// st, answering a round or a rebuild, to bounds: its rank at each bound, one
// word each.
func EncodeRanks(dst []uint64, st Store, bounds []uint64) []uint64 {
	for _, b := range bounds {
		dst = append(dst, uint64(st.RankOf(b)))
	}
	return dst
}

// DecodeRanks returns the ranks of a reply from EncodeRanks.
func DecodeRanks(words []uint64) []int64 {
	ranks := make([]int64, len(words))
	for i, w := range words {
		ranks[i] = int64(w)
	}
	return ranks
}

// AddCounts adds to counts[i] the count of interval i, [bounds[i−1],
// bounds[i]), from a reply's ranks at bounds, bounds[−1] being the
// universe's first value, 0, below which nothing lies: max(0, ranks[i] −
// ranks[i−1]). That is CountRange's value, clamped as CountRange clamps a
// sketch's difference.
func AddCounts(counts, ranks []int64) {
	prev := int64(0)
	for i, r := range ranks {
		counts[i] += max(0, r-prev)
		prev = r
	}
}

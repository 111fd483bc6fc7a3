package quantile_test

import (
	"fmt"
	"log"

	"disttrack/internal/core/quantile"
	"disttrack/internal/stream"
)

// Track the median of a distributed stream. Items must be distinct, so the
// raw values are symbolically perturbed and recovered afterwards.
func Example() {
	tr, err := quantile.New(quantile.Config{K: 2, Eps: 0.1, Phis: []float64{0.5}})
	if err != nil {
		log.Fatal(err)
	}
	gen := stream.Perturb(stream.FromSlice(ramp(10000)))
	for i := 0; ; i++ {
		key, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%2, key)
	}
	median := stream.Unperturb(tr.Quantile())
	fmt.Println("median within 10% of 5000:", median > 4000 && median < 6000)
	// Output:
	// median within 10% of 5000: true
}

// Track several quantiles with one tracker; the interval machinery is
// shared, so this is cheaper than separate trackers.
func Example_multipleQuantiles() {
	tr, err := quantile.New(quantile.Config{
		K: 4, Eps: 0.05, Phis: []float64{0.25, 0.5, 0.75},
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := stream.Perturb(stream.FromSlice(ramp(20000)))
	for i := 0; ; i++ {
		key, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, key)
	}
	q1 := stream.Unperturb(tr.QuantileOf(0.25))
	q3 := stream.Unperturb(tr.QuantileOf(0.75))
	fmt.Println("quartiles ordered:", q1 < q3)
	fmt.Println("p25 near 5000:", q1 > 4000 && q1 < 6000)
	// Output:
	// quartiles ordered: true
	// p25 near 5000: true
}

// ramp returns the values 1..n in a deterministic shuffled order.
func ramp(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	for i := n - 1; i > 0; i-- {
		j := int(uint64(i) * 2654435761 % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

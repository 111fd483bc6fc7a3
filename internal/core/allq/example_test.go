package allq_test

import (
	"fmt"
	"log"

	"disttrack/internal/core/allq"
	"disttrack/internal/stream"
)

// Track every quantile at once and query arbitrary ranks and percentiles.
func Example() {
	tr, err := allq.New(allq.Config{K: 2, Eps: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	gen := stream.Perturb(stream.FromSlice(ramp(20000)))
	for i := 0; ; i++ {
		key, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%2, key)
	}
	p50 := stream.Unperturb(tr.Quantile(0.50))
	p99 := stream.Unperturb(tr.Quantile(0.99))
	fmt.Println("p50 near 10000:", p50 > 8500 && p50 < 11500)
	fmt.Println("p99 near 19800:", p99 > 18500 && p99 <= 20000)
	// Output:
	// p50 near 10000: true
	// p99 near 19800: true
}

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

package disttrack_test

import (
	"fmt"
	"log"

	"disttrack/internal/core/allq"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/stream"
)

// The paper's three trackers over one skewed stream arriving at k = 4 sites:
// the heavy hitters (Theorem 2.1), the median (Theorem 3.1) and all
// quantiles at once (Theorem 4.1), each ε-approximate at all times.
func Example() {
	const k, eps = 4, 0.05

	hhTr, err := hh.New(hh.Config{K: k, Eps: eps})
	if err != nil {
		log.Fatal(err)
	}
	medTr, err := quantile.New(quantile.Config{K: k, Eps: eps, Phi: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	allTr, err := allq.New(allq.Config{K: k, Eps: eps})
	if err != nil {
		log.Fatal(err)
	}

	// Item 0 is hot. The quantile trackers assume distinct items, so they
	// are fed symbolically perturbed keys of the same values.
	values := stream.Zipf(10_000, 100_000, 1.4, 42)
	keys := stream.Perturb(stream.Zipf(10_000, 100_000, 1.4, 42))
	assign := stream.RoundRobin(k)
	for i := 0; ; i++ {
		v, ok := values.Next()
		if !ok {
			break
		}
		key, _ := keys.Next()
		site := assign.Site(i, v)
		hhTr.Feed(site, v)
		medTr.Feed(site, key)
		allTr.Feed(site, key)
	}

	fmt.Println("φ=0.1 heavy hitters:", hhTr.HeavyHitters(0.1))
	fmt.Println("median:", stream.Unperturb(medTr.Quantile()))
	fmt.Println("p90:", stream.Unperturb(allTr.Quantile(0.9)))
	fmt.Println("p99:", stream.Unperturb(allTr.Quantile(0.99)))
	// Output:
	// φ=0.1 heavy hitters: [0 1]
	// median: 2
	// p90: 98
	// p99: 2535
}

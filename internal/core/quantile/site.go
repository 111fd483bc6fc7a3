package quantile

import "disttrack/internal/sitestore"

// store aliases the shared per-site item store; see package sitestore for
// the exact (sorted runs) and sketched (Greenwald–Khanna) implementations.
type store = sitestore.Store

func newExactStore() store         { return sitestore.NewExact() }
func newGKStore(eps float64) store { return sitestore.NewGK(eps) }

package quantile

import (
	"math"
	"testing"

	"disttrack/internal/oracle"
)

// checkDeltaLaw asserts that every interval and total report carried
// exactly its threshold, the count the coordinator adds for it. A round
// build and a split set ivCount to exact counts and newRound sets totEst to
// the exact |A|; every later arrival either still waits in a site's delta or
// was reported in a batch of thrIv (thrTot). So with the exact store
// ivCount[i] + Σ_j ivDelta_j[i] is the exact count of interval i, and
// totEst + Σ_j totDelta_j is |A| (truth counts A). In either mode every
// delta lies in [0, threshold): a counter rises one arrival at a time and
// reports when it reaches its threshold. truth is nil in sketch mode, whose
// build counts are estimates.
func checkDeltaLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) {
	tb.Helper()
	p := tr.p
	if tr.Bootstrapping() {
		return
	}
	tot := p.totEst
	for j, s := range p.sites {
		if s.totDelta < 0 || s.totDelta >= p.thrTot {
			tb.Fatalf("%s: |A|=%d: site %d holds total delta %d, outside [0, %d)", label, tr.TrueTotal(), j, s.totDelta, p.thrTot)
		}
		tot += s.totDelta
	}
	if truth != nil && tot != tr.TrueTotal() {
		tb.Fatalf("%s: totEst + Σ totDelta = %d + %d, want |A| = %d", label, p.totEst, tot-p.totEst, tr.TrueTotal())
	}
	var below int64 // truth's rank at the next interval's lo
	for i, c := range p.ivCount {
		sum := c
		for j, s := range p.sites {
			d := s.ivDelta[i]
			if d < 0 || d >= p.thrIv {
				tb.Fatalf("%s: |A|=%d: site %d holds delta %d for interval %d, outside [0, %d)", label, tr.TrueTotal(), j, d, i, p.thrIv)
			}
			sum += d
		}
		if truth == nil {
			continue
		}
		lo, hi := p.ivBounds(i)
		r := truth.Rank(hi)
		if hi == math.MaxUint64 { // the last interval holds math.MaxUint64 too
			r += truth.Count(hi)
		}
		if want := r - below; sum != want {
			tb.Fatalf("%s: |A|=%d: interval %d [%d, %d): ivCount + Σ ivDelta = %d + %d, want its exact count %d",
				label, tr.TrueTotal(), i, lo, hi, c, sum-c, want)
		}
		below = r
	}
}

// roundLag follows one tracker's rounds from call to call at rest and
// asserts the round-lag law: a round opened because |A| doubled (not by a
// Reconfigure, which changes k) opens with m′ ∈ [2m, 2m + k·thrTot), m and
// thrTot the ending round's. totEst only rises, by thrTot a report, and the
// round ends at the report that brings it to 2m, so totEst < 2m + thrTot
// then; every other site holds under thrTot unreported. m′ is the exact |A|
// with the exact store. A call must open one round at most, except on the
// schedules of calls of thousands (multi): there one early call may open
// several, which hides the middle rounds' m, and such a call is not
// checked.
type roundLag struct {
	k, rounds      int
	m, thrTot      int64
	multi          bool // a call may open more than one round
	checked, lates int  // rounds checked, and of those opened past 2m
}

func (l *roundLag) check(tb testing.TB, label string, tr *Tracker) {
	tb.Helper()
	p := tr.p
	if label == "concurrent" {
		return // one call at rest: no round change to see
	}
	if tr.Bootstrapping() {
		return
	}
	if l.k == tr.K() && l.rounds > 0 && tr.Rounds() != l.rounds {
		switch lag := p.m - 2*l.m; {
		case tr.Rounds() != l.rounds+1:
			if !l.multi {
				tb.Fatalf("%s: |A|=%d: %d rounds in one call", label, tr.TrueTotal(), tr.Rounds()-l.rounds)
			}
		case lag < 0 || lag >= int64(tr.K())*l.thrTot:
			tb.Fatalf("%s: round %d opened at m′ = %d after m = %d: lag %d outside [0, k·thrTot = %d)",
				label, tr.Rounds(), p.m, l.m, lag, int64(tr.K())*l.thrTot)
		default:
			if lag > 0 {
				l.lates++
			}
			l.checked++
		}
	}
	l.k, l.rounds, l.m, l.thrTot = tr.K(), tr.Rounds(), p.m, p.thrTot
}

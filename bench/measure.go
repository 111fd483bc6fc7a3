package main

import (
	"bufio"
	"bytes"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantileOf returns the q-quantile of sorted (nearest rank).
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantileOf(s, 0.5)
}

// latencies summarises one series of per-operation latencies, in µs.
type latencies struct {
	n             int
	p50, p90, p99 float64
}

// summarise reduces a series. A percentile needs at least ten samples
// beyond it; a series too short for that reports the highest percentile it
// supports in its place (under 1,000 samples "p99" is lower than p99, and
// the printed sample count says so).
func summarise(us []float64) latencies {
	l := latencies{n: len(us)}
	if l.n == 0 {
		return l
	}
	sorted := slices.Clone(us)
	slices.Sort(sorted)
	supported := func(q float64) float64 {
		return quantileOf(sorted, max(min(q, 1-10/float64(l.n)), 0.5))
	}
	l.p50, l.p90, l.p99 = quantileOf(sorted, 0.5), supported(0.9), supported(0.99)
	return l
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssKB reads the process's resident set size from /proc/self/status.
func rssKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(string(f[0]), 10, 64)
				return kb
			}
		}
	}
	return 0
}

// rssSampler polls VmRSS every 100 ms and keeps the maximum.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: rssKB()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = max(s.peak, rssKB())
			}
		}
	}()
	return s
}

// peakKB stops the sampler and returns the highest RSS it saw.
func (s *rssSampler) peakKB() int64 {
	close(s.stop)
	s.wg.Wait()
	return max(s.peak, rssKB())
}

// scrape is one Prometheus text exposition, summed per metric family over
// all label sets (the benchmark only needs family totals).
type scrape map[string]float64

func parseScrape(text []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		out[name] += v
	}
	return out
}

package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host's hypervisor takes CPU time from this machine's vCPUs in spells
// of seconds to minutes: the steal column of /proc/stat. A cold seed slowed
// by about twice the time stolen during it, and warm-read's median read
// ranged from 1.2 to 2.2 ms over one noisy set of runs. The timed figures
// are therefore taken from the measurements the hypervisor disturbed
// least. A measurement is quiet when at most quietSteal of the machine's
// CPU time was stolen while it ran. A figure keeps a share of its
// measurements: the quiet ones when at least that share is quiet, and the
// least stolen otherwise. Steal is the host's doing, not the program's, so
// the choice never looks at how fast the program ran.
const quietSteal = 0.01

// leastStolen returns, in order, the indexes of the measurements a figure
// is taken from, given the share of CPU time stolen during each and the
// share of the measurements to keep (rounded up).
func leastStolen(steal []float64, keep float64) []int {
	var quiet []int
	for i, s := range steal {
		if s <= quietSteal {
			quiet = append(quiet, i)
		}
	}
	n := int(math.Ceil(keep * float64(len(steal))))
	if len(quiet) >= n {
		return quiet
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}

// leastStolenOf returns the values at leastStolen's indexes, keeping at
// least half: xs[i] was measured while steal[i] was stolen.
func leastStolenOf(xs, steal []float64) []float64 {
	var out []float64
	for _, i := range leastStolen(steal, 0.5) {
		out = append(out, xs[i])
	}
	return out
}

// vCPUs is the number of CPUs /proc/stat accounts for: the machine's, which
// may be more than this process may use.
var vCPUs = func() int {
	b, err := os.ReadFile("/proc/stat")
	n := 0
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
				n++
			}
		}
	}
	return max(n, 1)
}()

// stolen returns the CPU time the hypervisor has taken from the machine's
// vCPUs since boot, or 0 where unknown.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stealShare is the share of the machine's CPU time stolen between two
// readings of stolen taken wall apart.
func stealShare(from, to, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return (to - from).Seconds() / (wall.Seconds() * float64(vCPUs))
}

// trackSteal reads stolen now and then every period until the returned
// stop is called, and stop returns the share stolen in each period: slice
// k covers [k·period, (k+1)·period) from the call. The last, partial slice
// ends at stop.
func trackSteal(period time.Duration) (stop func() []float64) {
	start := time.Now()
	at := []time.Duration{0}
	val := []time.Duration{stolen()}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				at, val = append(at, time.Since(start)), append(val, stolen())
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-exited // the sampler has ended, so at and val are ours
		at, val = append(at, time.Since(start)), append(val, stolen())
		shares := make([]float64, len(at)-1)
		for k := range shares {
			shares[k] = stealShare(val[k], val[k+1], at[k+1]-at[k])
		}
		return shares
	}
}

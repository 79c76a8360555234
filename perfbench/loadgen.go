package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrivals draws Poisson arrival offsets at rate per second over dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// outcome is one open-loop operation, timed from the loop's start.
type outcome struct {
	Due, Start, End time.Duration
	// Slept is set when the worker was idle and waited for the due time;
	// Start−Due is then the generator's own lateness rather than queueing.
	Slept bool
	OK    bool
}

// Latency is the operation's time from when it was due, so a stall also
// charges the wait it imposes on the operations queued behind it.
func (o outcome) Latency() time.Duration { return o.End - o.Due }

// openLoop issues one operation per due offset on `workers` goroutines,
// each taking the next operation in due order. An idle worker sleeps until
// the due time; a worker that is behind starts at once, so the queue that
// builds when the system cannot keep up shows in the latencies. It returns
// when every operation has finished or ctx is done; operations never started
// are reported with OK false.
func openLoop(ctx context.Context, due []time.Duration, workers int, do func(i int) bool) []outcome {
	out := make([]outcome, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				o := &out[i]
				o.Due = due[i]
				if wait := due[i] - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
					o.Slept = true
				}
				o.Start = time.Since(start)
				o.OK = do(i)
				o.End = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// latenciesMS returns the latencies of the finished outcomes in milliseconds.
func latenciesMS(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.End == 0 {
			continue
		}
		xs = append(xs, float64(o.Latency().Nanoseconds())/1e6)
	}
	return xs
}

// keptLatenciesMS returns the latencies, in milliseconds, of the finished
// outcomes due in the kept slices of the loop (indexes into consecutive
// slices of the given length).
func keptLatenciesMS(outs []outcome, slice time.Duration, kept []int) []float64 {
	keep := map[int]bool{}
	for _, k := range kept {
		keep[k] = true
	}
	var xs []float64
	for _, o := range outs {
		if o.End != 0 && keep[int(o.Due/slice)] {
			xs = append(xs, float64(o.Latency().Nanoseconds())/1e6)
		}
	}
	return xs
}

// slicedTailMS is the median, over consecutive slices of the loop, of each
// slice's tail latency in milliseconds. A burst of noise from outside the
// stack moves one slice's tail, not the median of several.
func slicedTailMS(outs []outcome, slice time.Duration) (float64, []float64) {
	var tails []float64
	var cur []float64
	end := slice
	flush := func() {
		if len(cur) > 0 {
			tails = append(tails, tail(cur))
		}
		cur = nil
	}
	for _, o := range outs {
		if o.End == 0 {
			continue
		}
		for o.Due >= end {
			flush()
			end += slice
		}
		cur = append(cur, float64(o.Latency().Nanoseconds())/1e6)
	}
	flush()
	return median(tails), tails
}

// generatorLateMS returns how late the generator woke for operations whose
// worker was idle at the due time, in milliseconds.
func generatorLateMS(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.Slept {
			xs = append(xs, float64((o.Start-o.Due).Nanoseconds())/1e6)
		}
	}
	return xs
}

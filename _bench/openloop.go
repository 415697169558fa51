package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// poissonSchedule returns the due times, as offsets from the start of a
// phase, of a Poisson arrival process with the given mean rate (per second)
// over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// opTimes records one open-loop operation as offsets from the phase start:
// when it was due, when the generator handed it to the workers, when a
// worker started it, and when its reply had been read.
type opTimes struct {
	due, queued, sent, done time.Duration
}

// latency is measured from the due time, so a stall that delays later
// operations is charged to them too.
func (o opTimes) latency() time.Duration { return o.done - o.due }

// genLag is how late the generator released the operation.
func (o opTimes) genLag() time.Duration { return o.queued - o.due }

// startDelay is how long the operation waited for a free connection.
func (o opTimes) startDelay() time.Duration { return o.sent - o.due }

// runOpenLoop releases operation i at due[i] to a pool of conns workers and
// returns the timings with the phase's start. Operations never wait for
// earlier ones to finish before being released: if every worker is busy
// they queue on the client side, and that wait counts in their latency.
// do(worker, i) performs operation i and must return once its reply has
// been read.
func runOpenLoop(due []time.Duration, conns int, do func(worker, i int)) ([]opTimes, time.Time) {
	times := make([]opTimes, len(due))
	// Sized to the whole schedule so the generator never blocks on a
	// backlog and its lateness measures only its own scheduling.
	ch := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				sent := time.Since(start)
				do(w, i)
				times[i].sent, times[i].done = sent, time.Since(start)
			}
		}()
	}
	// The generator waits in nanosleep on a thread of its own. time.Sleep
	// wakes through the runtime's poller, and on a 2-vCPU Linux guest it
	// released operations 0.5 ms late at the median, against 0.08 ms for
	// nanosleep; that lateness counts in every operation's latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		times[i].due, times[i].queued = d, time.Since(start)
		ch <- i
	}
	close(ch)
	wg.Wait()
	return times, start
}

// loopSummary condenses one open-loop phase.
type loopSummary struct {
	N           int     `json:"n"`
	P50ms       float64 `json:"p50_ms"`
	P99ms       float64 `json:"p99_ms"`
	TailPct     float64 `json:"tail_pct_supported"`
	GenLagP99ms float64 `json:"gen_lag_p99_ms"`
	BacklogGrew bool    `json:"backlog_grew"`
	// DoneRate is completions per second from the first due time to the
	// last reply.
	DoneRate float64 `json:"done_per_s"`
}

func summarize(times []opTimes) loopSummary {
	s := loopSummary{N: len(times)}
	if len(times) == 0 {
		return s
	}
	lat := make([]float64, len(times))
	lag := make([]float64, len(times))
	var last time.Duration
	for i, o := range times {
		lat[i], lag[i] = ms(o.latency()), ms(o.genLag())
		last = max(last, o.done)
	}
	s.P50ms = percentile(lat, 50)
	s.P99ms = percentile(lat, 99)
	s.TailPct = supportedPercentile(len(times))
	s.GenLagP99ms = percentile(lag, 99)
	s.BacklogGrew = backlogGrows(times)
	s.DoneRate = ratio(float64(len(times)), (last - times[0].due).Seconds())
	return s
}

// backlogGrows reports whether operations waited longer for a connection
// at the end of the schedule than in its second quarter: under a load the
// service sustains the wait is stationary, under overload it climbs. The
// slack absorbs scheduler noise at light load.
func backlogGrows(times []opTimes) bool {
	n := len(times)
	if n < 8 {
		return false
	}
	quarter := func(q int) float64 {
		xs := make([]float64, 0, n/4)
		for _, o := range times[q*n/4 : (q+1)*n/4] {
			xs = append(xs, ms(o.startDelay()))
		}
		return median(xs)
	}
	return quarter(3) > 1.5*quarter(1)+2
}

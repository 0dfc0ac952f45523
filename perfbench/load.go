package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencies collects per-class request latencies and failure counts.
// Safe for concurrent use.
type latencies struct {
	mu       sync.Mutex
	ms       [numOps][]float64
	attempts [numOps]int64
	failures [numOps]int64
}

// record books one request. A failed, refused or unserved request is
// booked as an infinite latency, so it misses every latency limit and a
// change that drops slow requests cannot improve a percentile.
func (l *latencies) record(op opClass, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts[op]++
	ms := float64(d) / float64(time.Millisecond)
	if err != nil {
		l.failures[op]++
		ms = math.Inf(1)
	}
	l.ms[op] = append(l.ms[op], ms)
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	if f == 0 {
		return xs[i] // an infinite neighbour must not turn this into NaN
	}
	return xs[i]*(1-f) + xs[i+1]*f
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// schedule is an open loop's due times, offsets from its start.
type schedule []time.Duration

// poissonSchedule draws arrivals at rate per second for the given span:
// independent users, so exponential gaps.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) schedule {
	var s schedule
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return s
		}
		s = append(s, d)
	}
}

// evenSchedule spaces arrivals exactly 1/rate apart: a fixed insert rate.
func evenSchedule(rate float64, span time.Duration) schedule {
	var s schedule
	gap := float64(time.Second) / rate
	for i := 1; ; i++ {
		d := time.Duration(float64(i) * gap)
		if d >= span {
			return s
		}
		s = append(s, d)
	}
}

// loopStats describe how late an open-loop generator ran.
type loopStats struct {
	lagMs      []float64 // per request: start minus due time
	backlogMax int64     // most requests due but not yet started
	unserved   int64     // requests still unstarted when the loop stopped
}

// drainGrace is how long after its last due time an open loop keeps
// serving its backlog; requests not started by then count as failed.
const drainGrace = time.Second

var errUnserved = errors.New("not started before the open loop stopped")

// openLoop issues request i at start+sched[i] on whichever of lanes
// lanes is free, regardless of how earlier requests fare. opOf names
// request i's class; do sends it and returns its error. Latency is
// measured from the due time, so a stall also charges the requests
// queued behind it.
func openLoop(ctx context.Context, start time.Time, sched schedule, lanes int,
	opOf func(i int) opClass, do func(ctx context.Context, lane, i int) error, lat *latencies) loopStats {
	var next atomic.Int64
	var mu sync.Mutex
	st := loopStats{}
	var wg sync.WaitGroup
	stop := start.Add(drainGrace)
	if len(sched) > 0 {
		stop = stop.Add(sched[len(sched)-1])
	}
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				if time.Now().After(stop) {
					lat.record(opOf(i), 0, errUnserved)
					mu.Lock()
					st.unserved++
					mu.Unlock()
					continue
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				began := time.Now()
				k := sort.Search(len(sched), func(k int) bool { return start.Add(sched[k]).After(began) })
				backlog := int64(k) - next.Load()
				err := do(ctx, lane, i)
				lat.record(opOf(i), time.Since(due), err)
				mu.Lock()
				st.lagMs = append(st.lagMs, float64(began.Sub(due))/float64(time.Millisecond))
				if backlog > st.backlogMax {
					st.backlogMax = backlog
				}
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return st
}

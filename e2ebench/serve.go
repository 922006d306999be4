package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// Load shapes of the two serving workloads.
const (
	// smallRate is serve-small's open-loop arrival rate in jobs/s, well
	// below what two shards and the router's 4 slots per shard admit.
	smallRate = 5.0
	// amrOutstanding is serve-amr's closed-loop client count.
	amrOutstanding = 2
	// maxOutstanding bounds the open loop's in-flight jobs; reaching it
	// delays sends, which shows as generator lag.
	maxOutstanding = 64
	// lagLimitMs is the generator lag p99 beyond which a run is invalid.
	// The client shares two cores with the router and shards, so a send
	// can wait tens of milliseconds for a processor; 100 ms, 40 % of the
	// router's poll period, still flags a generator that fell behind.
	lagLimitMs = 100.0
	// setups is how many times a run brings the stack up; setup_s is
	// the median.
	setups = 3
)

// warmupSpec is solved once through the router after each set-up, so
// connections are open and every layer has run before timing starts.
var warmupSpec = service.Spec{N: 12, Rays: 8, Seed: 0x5eed, Class: service.ClassInteractive}

// specSeed derives the i-th distinct ray seed of a run.
func specSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return z | 1
}

// smallShapes are the fresh submissions of one block of ten in
// serve-small's mix: 12³ and 16³ single-level solves and 2-level 16³
// solves (patch 8, rr 2). The tenth submission of a block repeats an
// earlier one.
var smallShapes = []service.Spec{
	{N: 12}, {N: 12}, {N: 12}, {N: 12},
	{N: 16}, {N: 16}, {N: 16},
	{N: 16, Levels: 2, PatchN: 8, RR: 2}, {N: 16, Levels: 2, PatchN: 8, RR: 2},
}

// smallJobs generates serve-small's n submissions in blocks of ten: the
// nine shapes in a seed-shuffled order with 8 to 16 rays (each count
// once per block), and one repeat (10 %) at a seed-chosen place, a copy
// of the previous submission or of a random earlier one. Fixed counts
// per block keep the offered work of a run steady across seeds.
func smallJobs(seed uint64, n int) []job {
	rng := rand.New(rand.NewPCG(seed, 0x51))
	specs := make([]service.Spec, 0, n)
	for len(specs) < n {
		shapes, rays := rng.Perm(len(smallShapes)), rng.Perm(len(smallShapes))
		repeatAt := rng.IntN(len(smallShapes) + 1)
		if len(specs) == 0 {
			repeatAt = 1 + rng.IntN(len(smallShapes))
		}
		for slot := 0; slot <= len(smallShapes) && len(specs) < n; slot++ {
			i := len(specs)
			if slot == repeatAt {
				from := i - 1
				if rng.IntN(2) == 0 {
					from = rng.IntN(i)
				}
				specs = append(specs, specs[from])
				continue
			}
			k := slot
			if slot > repeatAt {
				k--
			}
			s := smallShapes[shapes[k]]
			s.Rays = 8 + rays[k]
			s.Seed = specSeed(seed, i)
			s.Class = service.ClassInteractive
			specs = append(specs, s)
		}
	}
	jobs := make([]job, n)
	for i, s := range specs {
		jobs[i] = newJob(i, s)
	}
	for _, i := range pick(rng, min(n, 40), 4) {
		jobs[i].keep = true
	}
	return jobs
}

// amrCycle is serve-amr's job cycle: the paper's 2-level configuration
// (rr 4, patch 16) at 32³ and 48³, through the gray, scattering,
// 4-band spectral and adaptive (relTol 0.05, cap 32) paths in roughly
// equal shares of solve time. Adaptive solves stop near 8 rays per cell
// whatever the cap, and their requested work counts at the cap; cap 32
// keeps an adaptive job's requested work near the cycle's average, so
// one job more or less at the end of a run moves throughput little.
var amrCycle = []service.Spec{
	{N: 32, Rays: 32},
	{N: 48, Rays: 32, AdaptiveRelTol: 0.05},
	{N: 32, Rays: 16, SpectralBands: 4},
	{N: 48, Rays: 16, ScatterCoeff: 0.5},
	{N: 32, Rays: 32, AdaptiveRelTol: 0.05},
	{N: 48, Rays: 16},
	{N: 32, Rays: 24, SpectralBands: 4},
	{N: 48, Rays: 32, AdaptiveRelTol: 0.05},
	{N: 32, Rays: 32, ScatterCoeff: 0.5},
	{N: 48, Rays: 32, AdaptiveRelTol: 0.05},
}

// amrJobs returns serve-amr's job stream: the cycle in its fixed order,
// every job with its own seed-derived ray seed. Two of the first six
// jobs, chosen by the seed, are kept for the bitwise check. The order
// is fixed because with about 30 jobs per run a shuffled cycle moves
// the latency median by more than any change worth detecting.
func amrJobs(seed uint64) func(i int) job {
	rng := rand.New(rand.NewPCG(seed, 0xa3))
	keep := map[int]bool{}
	for _, i := range pick(rng, 6, 2) {
		keep[i] = true
	}
	return func(i int) job {
		s := amrCycle[i%len(amrCycle)]
		s.Levels, s.PatchN, s.RR = 2, 16, 4
		s.Seed = specSeed(seed, i)
		j := newJob(i, s)
		j.keep = keep[i]
		return j
	}
}

// pick returns k distinct indices below n in ascending order.
func pick(rng *rand.Rand, n, k int) []int {
	out := rng.Perm(n)[:min(k, n)]
	sort.Ints(out)
	return out
}

// poissonTimes returns n arrival offsets of a Poisson process over
// [0, span) conditioned on exactly n arrivals: sorted uniform draws.
func poissonTimes(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	return ts
}

// openLoop sends jobs[i] at start+times[i] whatever the system does,
// and waits for every job to finish.
func openLoop(c *client, jobs []job, times []time.Duration, start time.Time) []jobRecord {
	recs := make([]jobRecord, len(jobs))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	for i := range jobs {
		due := start.Add(times[i])
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = c.run(jobs[i], due)
			<-sem
		}(i)
	}
	wg.Wait()
	return recs
}

// closedLoop keeps conc jobs outstanding until span has passed since
// start; jobs sent before then run to completion.
func closedLoop(c *client, next func(i int) job, conc int, start time.Time, span time.Duration) []jobRecord {
	var (
		mu   sync.Mutex
		recs []jobRecord
		seq  atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < span {
				r := c.run(next(int(seq.Add(1)-1)), time.Now())
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
	return recs
}

// servePhase is one timed stretch of a serving workload.
type servePhase struct {
	recs  []jobRecord
	start int64 // ns since epoch: schedule start
	stop  int64 // ns since epoch: last job end
	// before and after are the stack's counters around the phase.
	before, after map[string]float64
	spans         []span
}

// setUp brings a stack up and runs the warm-up job through it,
// returning the stack, a client and the seconds it took.
func setUp(rec *recorder, epoch time.Time) (*stack, *client, float64, error) {
	t0 := time.Now()
	st, err := startStack(rec)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(st.routerURL, epoch)
	if r := c.run(newJob(-1, warmupSpec), time.Now()); !r.ok {
		c.close()
		_ = st.close()
		return nil, nil, 0, fmt.Errorf("warm-up job: %s", r.reason)
	}
	return st, c, time.Since(t0).Seconds(), nil
}

// runServePhase drives one workload phase against a fresh stack.
func runServePhase(w string, seed uint64, span time.Duration, rec *recorder, epoch time.Time, setupTimes *[]float64, nSetups int) (servePhase, error) {
	var (
		st *stack
		c  *client
	)
	for i := 0; i < nSetups; i++ {
		s, cl, secs, err := setUp(rec, epoch)
		if err != nil {
			return servePhase{}, err
		}
		*setupTimes = append(*setupTimes, secs)
		if i < nSetups-1 {
			cl.close()
			if err := s.close(); err != nil {
				return servePhase{}, fmt.Errorf("stack shutdown: %w", err)
			}
			continue
		}
		st, c = s, cl
	}
	if rec != nil {
		c.shardURL = st.shardURL
	}
	ph := servePhase{before: stackCounters(st)}
	start := time.Now()
	ph.start = c.since(start)
	switch w {
	case "serve-small":
		n := int(smallRate*span.Seconds() + 0.5)
		jobs := smallJobs(seed, n)
		times := poissonTimes(rand.New(rand.NewPCG(seed, 0x7a)), n, span)
		ph.recs = openLoop(c, jobs, times, start)
	case "serve-amr":
		ph.recs = closedLoop(c, amrJobs(seed), amrOutstanding, start, span)
	}
	for _, r := range ph.recs {
		ph.stop = max(ph.stop, r.end)
	}
	ph.after = stackCounters(st)
	if rec != nil {
		ph.spans = rec.snapshot()
	}
	c.close()
	if err := st.close(); err != nil {
		return ph, fmt.Errorf("stack shutdown: %w", err)
	}
	return ph, nil
}

// Counters read from the router and summed over the shards.
var (
	routerCounters = []string{"router_jobs_rerouted_total", "router_breaker_opens_total",
		"router_affinity_hits_total", "router_affinity_spills_total"}
	shardCounters = []string{"rmcrtd_jobs_submitted_total", "rmcrtd_jobs_rejected_total",
		"rmcrtd_cache_hits_total", "rmcrtd_cache_misses_total", "rmcrtd_jobs_coalesced_total"}
)

func stackCounters(st *stack) map[string]float64 {
	m := map[string]float64{}
	for _, name := range routerCounters {
		v, _ := st.router.Registry().Value(name)
		m[name] = v
	}
	for _, sp := range st.shards {
		for _, name := range shardCounters {
			v, _ := sp.mgr.Registry().Value(name)
			m[name] += v
		}
		m["packed_hits"] += float64(sp.mgr.Packed().Hits())
		m["packed_builds"] += float64(sp.mgr.Packed().Builds())
	}
	return m
}

// verifyServe runs the output checks that follow the timed phase:
// every record with the same key must carry the same digest, and the
// kept subset must match an in-process Spec.Solve bit for bit. Failing
// records are marked wrong.
func verifyServe(recs []*jobRecord, specOf func(idx int) service.Spec) (checked int, err error) {
	byKey := map[string]uint64{}
	for _, r := range recs {
		if !r.ok {
			continue
		}
		if d, ok := byKey[r.key]; ok && d != r.digest {
			r.ok, r.wrong, r.reason = false, true, "wrong result: differs from an earlier result with the same key"
			continue
		}
		byKey[r.key] = r.digest
	}
	for _, r := range recs {
		if !r.ok || r.divq == nil {
			continue
		}
		want, _, _, serr := specOf(r.idx).Solve(context.Background())
		if serr != nil {
			return checked, fmt.Errorf("reference solve of job %d: %w", r.idx, serr)
		}
		checked++
		if e := bitwiseEqual(r.divq, want.Data()); e != nil {
			r.ok, r.wrong, r.reason = false, true, "wrong result: "+e.Error()
		}
		r.divq = nil
	}
	return checked, nil
}

package main

import "fmt"

// jobTrace is one job's record joined with the spans of every layer it
// crossed.
type jobTrace struct {
	r *jobRecord
	// routerSubmit and routerResult are the router's handler spans for
	// the client's submit and result calls; place, polls, donePoll and
	// fetch its calls to the shard; shardSubmit and shardResult the
	// shard's handler spans for the placement and the fetch; solve the
	// solve that produced the result (nil for a result-cache hit).
	routerSubmit, routerResult *span
	place, donePoll, fetch     *span
	shardSubmit, shardResult   *span
	solve                      *span
	polls, donePolls           int
}

// complete reports whether every span the stage accounting needs was
// found.
func (jt *jobTrace) complete() bool {
	cached := jt.r.shardStatus != nil && jt.r.shardStatus.FromCache
	return jt.routerSubmit != nil && jt.routerResult != nil && jt.place != nil && jt.donePoll != nil &&
		jt.fetch != nil && jt.shardSubmit != nil && jt.shardResult != nil && (jt.solve != nil || cached)
}

// joinSpans joins each verified job to its spans: router spans on the
// router job ID, router-to-shard and shard spans on the shard name and
// the shard job ID from router status, and the solve on the spec key.
func joinSpans(recs []*jobRecord, spans []span) []jobTrace {
	byJob := map[string]*span{}
	byShardJob := map[string]*span{}
	polls := map[string][]*span{}
	solves := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "cluster.http.submit", "cluster.http.result":
			if s.Job != "" && s.Code/100 == 2 {
				byJob[s.Name+"|"+s.Job] = s
			}
		case "cluster.rt.place", "cluster.rt.fetch", "service.http.submit", "service.http.result":
			if s.ShardJob != "" && s.Code/100 == 2 {
				byShardJob[s.Name+"|"+s.Shard+"|"+s.ShardJob] = s
			}
		case "cluster.rt.poll":
			k := s.Shard + "|" + s.ShardJob
			polls[k] = append(polls[k], s)
		case "rmcrt.solve":
			k := s.Shard + "|" + s.Key
			solves[k] = append(solves[k], s)
		}
	}
	var out []jobTrace
	for _, r := range recs {
		if !r.ok {
			continue
		}
		jt := jobTrace{r: r,
			routerSubmit: byJob["cluster.http.submit|"+r.routerID],
			routerResult: byJob["cluster.http.result|"+r.routerID],
		}
		sj := r.shard + "|" + r.shardJob
		jt.place = byShardJob["cluster.rt.place|"+sj]
		jt.fetch = byShardJob["cluster.rt.fetch|"+sj]
		jt.shardSubmit = byShardJob["service.http.submit|"+sj]
		jt.shardResult = byShardJob["service.http.result|"+sj]
		for _, p := range polls[sj] {
			jt.polls++
			if p.Done {
				jt.donePolls++
				if jt.donePoll == nil || p.End < jt.donePoll.End {
					jt.donePoll = p
				}
			}
		}
		if jt.donePoll != nil && (r.shardStatus == nil || !r.shardStatus.FromCache) {
			// The solve behind the result: the last one of this key on
			// this shard that started before the router saw it done.
			for _, s := range solves[r.shard+"|"+r.key] {
				if s.Start <= jt.donePoll.End && (jt.solve == nil || s.Start > jt.solve.Start) {
					jt.solve = s
				}
			}
		}
		out = append(out, jt)
	}
	return out
}

// Stage boundaries of a routed job, in order.
const (
	bDue = iota
	bSend
	bRouterAccepted
	bPlaceStart
	bPlaceEnd
	bSolveStart
	bSolveEnd
	bRouterSawDone
	bFetchEnd
	bClientSawDone
	bResultEnd
	bVerified
	nBounds
)

// stageNames names the interval that starts at each boundary.
var stageNames = [nBounds - 1]string{
	"loadgen lag", "client submit", "router dispatch wait", "router place", "shard queue wait",
	"solve", "router notice lag", "router fetch", "client poll lag", "client result", "client decode+verify",
}

// accounting is one job's latency split into stages and layers.
type accounting struct {
	stages  [nBounds - 1]int64
	self    map[string]int64
	wait    map[string]int64
	overlap int64 // how far out-of-order boundaries were pulled forward
	sum     int64
	latency int64
}

// account splits a complete job's latency into consecutive stages and
// attributes each to a layer as self or waiting time. A span nested in
// a stage (the handler inside an HTTP call) is the callee's self time;
// the rest of the stage is the caller's. A job that rode a solve that
// started before it was placed (coalesced) or needed none (cache hit)
// starts its solve stage at placement.
func (jt *jobTrace) account() accounting {
	r := jt.r
	var b [nBounds]int64
	b[bDue], b[bSend] = r.due, r.send
	// The router may start the placement before its submit handler has
	// finished writing the 202; the job's path then continues with the
	// placement, and the rest of the handler runs beside it.
	b[bRouterAccepted] = min(jt.routerSubmit.End, jt.place.Start)
	b[bPlaceStart], b[bPlaceEnd] = jt.place.Start, jt.place.End
	b[bSolveStart], b[bSolveEnd] = jt.place.End, jt.place.End
	if jt.solve != nil {
		b[bSolveStart] = max(jt.solve.Start, jt.place.End)
		b[bSolveEnd] = max(jt.solve.End, jt.place.End)
	}
	b[bRouterSawDone], b[bFetchEnd] = jt.donePoll.End, jt.fetch.End
	b[bClientSawDone], b[bResultEnd], b[bVerified] = r.doneSeen, r.resEnd, r.end

	a := accounting{self: map[string]int64{}, wait: map[string]int64{}, latency: r.end - r.due}
	c := b
	for i := 1; i < nBounds; i++ {
		if c[i] < c[i-1] {
			a.overlap += c[i-1] - c[i]
			c[i] = c[i-1]
		}
	}
	for i := range a.stages {
		a.stages[i] = c[i+1] - c[i]
		a.sum += a.stages[i]
	}
	split := func(d, inner int64, callee, caller string) {
		inner = min(max(inner, 0), d)
		a.self[callee] += inner
		a.self[caller] += d - inner
	}
	s := a.stages
	a.wait["loadgen"] += s[0]
	split(s[1], jt.routerSubmit.dur(), "cluster", "loadgen")
	a.wait["cluster"] += s[2]
	split(s[3], jt.shardSubmit.dur(), "service", "cluster")
	a.wait["service"] += s[4]
	a.self["rmcrt"] += s[5]
	a.wait["cluster"] += s[6]
	split(s[7], jt.shardResult.dur(), "service", "cluster")
	a.wait["loadgen"] += s[8]
	split(s[9], jt.routerResult.dur(), "cluster", "loadgen")
	a.self["loadgen"] += s[10]
	return a
}

// reconcileTol is the per-job tolerance of the reconciliation: stage
// sums and out-of-order boundaries may differ from the client's
// latency by at most max(1 ms, 1 % of the latency).
func reconcileTol(latency int64) int64 { return max(1_000_000, latency/100) }

func (a accounting) reconciled() bool {
	tol := reconcileTol(a.latency)
	d := a.sum - a.latency
	return d <= tol && d >= -tol && a.overlap <= tol
}

var layers = []string{"loadgen", "cluster", "service", "rmcrt"}

// analyzeServe turns a traced phase into per-layer metrics and the
// stage and layer tables.
func analyzeServe(res *result, ph servePhase, untracedP50 float64) {
	recs := make([]*jobRecord, len(ph.recs))
	for i := range ph.recs {
		recs[i] = &ph.recs[i]
	}
	traces := joinSpans(recs, ph.spans)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	var (
		submit, dispatch, place, notice, fetch, relay, shardSubmit, encode, bytes []float64
		polls, donePolls, nComplete, nReconciled                                  int
		stageSum                                                                  [nBounds - 1]float64
		selfSum, waitSum                                                          = map[string]float64{}, map[string]float64{}
		latSum                                                                    float64
		worst                                                                     int64
	)
	for i := range traces {
		jt := &traces[i]
		polls += jt.polls
		donePolls += jt.donePolls
		if jt.routerSubmit != nil {
			submit = append(submit, ms(jt.routerSubmit.dur()))
		}
		if jt.place != nil {
			place = append(place, ms(jt.place.dur()))
		}
		if jt.fetch != nil {
			fetch = append(fetch, ms(jt.fetch.dur()))
		}
		if jt.routerResult != nil {
			relay = append(relay, ms(jt.routerResult.dur()))
		}
		if jt.shardSubmit != nil {
			shardSubmit = append(shardSubmit, ms(jt.shardSubmit.dur()))
		}
		if jt.shardResult != nil {
			encode = append(encode, ms(jt.shardResult.dur()))
			bytes = append(bytes, float64(jt.shardResult.Bytes))
		}
		if !jt.complete() {
			continue
		}
		nComplete++
		a := jt.account()
		if a.reconciled() {
			nReconciled++
		}
		worst = max(worst, abs64(a.sum-a.latency), a.overlap)
		dispatch = append(dispatch, ms(a.stages[bRouterAccepted]))
		notice = append(notice, ms(a.stages[bSolveEnd]))
		for k, d := range a.stages {
			stageSum[k] += ms(d)
		}
		for _, l := range layers {
			selfSum[l] += ms(a.self[l])
			waitSum[l] += ms(a.wait[l])
		}
		latSum += ms(a.latency)
	}
	nJobs := len(traces)
	res.set("cluster.submit_ms.p50", median(submit), "ms", len(submit), "router submit handler")
	res.set("cluster.dispatch_wait_ms.p50", median(dispatch), "ms", len(dispatch), "router accepted to placement start")
	res.set("cluster.place_ms.p50", median(place), "ms", len(place), "router POST to shard")
	res.set("cluster.notice_lag_ms.p50", median(notice), "ms", len(notice), "solve end to the router's done poll")
	res.set("cluster.polls_per_job", ratio(float64(polls), float64(nJobs)), "count", nJobs, "router status calls to shards")
	res.set("cluster.poll_useful_ratio", ratio(float64(donePolls), float64(polls)), "ratio", polls, "polls that found the job done")
	res.set("cluster.fetch_ms.p50", median(fetch), "ms", len(fetch), "router result fetch from shard")
	res.set("cluster.result_ms.p50", median(relay), "ms", len(relay), "router result handler (relay to client)")
	d := func(name string) float64 { return ph.after[name] - ph.before[name] }
	res.set("cluster.reroutes", d("router_jobs_rerouted_total"), "count", nJobs, "")
	hits, spills := d("router_affinity_hits_total"), d("router_affinity_spills_total")
	res.set("cluster.affinity_hit_ratio", ratio(hits, hits+spills), "ratio", int(hits+spills), "placements on the home shard")
	res.set("resilience.breaker_opens", d("router_breaker_opens_total"), "count", nJobs, "")
	res.set("service.submit_ms.p50", median(shardSubmit), "ms", len(shardSubmit), "shard submit handler")
	var queue []float64
	for _, r := range recs {
		if r.ok && r.shardStatus != nil {
			queue = append(queue, r.shardStatus.QueueSeconds*1e3)
		}
	}
	res.set("service.queue_wait_ms.p50", median(queue), "ms", len(queue), "shard status queue_seconds")
	qt, qp, qb, _ := tail(queue)
	res.set("service.queue_wait_ms.tail", qt, "ms", len(queue), fmt.Sprintf("p%.1f, %d beyond", qp, qb))
	res.set("service.result_encode_ms.p50", median(encode), "ms", len(encode), "shard result handler (JSON encode and write)")
	res.set("service.result_bytes.p50", median(bytes), "bytes", len(bytes), "shard result body")
	ch, cm := d("rmcrtd_cache_hits_total"), d("rmcrtd_cache_misses_total")
	res.set("service.result_cache_hit_ratio", ratio(ch, ch+cm), "ratio", int(ch+cm), "")
	sub := d("rmcrtd_jobs_submitted_total")
	res.set("service.coalesced_ratio", ratio(d("rmcrtd_jobs_coalesced_total"), sub), "ratio", int(sub), "")
	ph2, pb := d("packed_hits"), d("packed_builds")
	res.set("service.packed_hit_ratio", ratio(ph2, ph2+pb), "ratio", int(ph2+pb), "PackedCache table acquisitions")
	res.set("service.rejected", d("rmcrtd_jobs_rejected_total"), "count", int(sub), "")

	// Kernel metrics: solve spans, and exact counts from shard status.
	kindOf := map[string]string{}
	for _, r := range recs {
		kindOf[r.key] = r.kind
	}
	var solveMs []float64
	nsPerStep := map[string][]float64{}
	for _, s := range ph.spans {
		// Solves before the phase are the set-up's warm-up job.
		if s.Name != "rmcrt.solve" || s.Steps == 0 || s.Start < ph.start {
			continue
		}
		solveMs = append(solveMs, ms(s.dur()))
		k := kindOf[s.Key]
		nsPerStep[k] = append(nsPerStep[k], float64(s.dur())/float64(s.Steps))
	}
	res.set("rmcrt.solve_ms.p50", median(solveMs), "ms", len(solveMs), "shard solver calls")
	for _, k := range []string{"gray", "scatter", "spectral", "adaptive"} {
		v := nsPerStep[k]
		note := "solve time / DDA steps"
		if len(v) == 0 {
			note = "no " + k + " solves in this workload"
		}
		res.set("rmcrt.ns_per_step."+k, median(v), "ns", len(v), note)
	}
	var steps, rays, saved, adaptiveBudget float64
	for _, r := range recs {
		st := r.shardStatus
		if !r.ok || st == nil || st.FromCache || st.Coalesced {
			continue
		}
		steps += float64(st.Steps)
		rays += float64(st.Rays)
		if r.kind == "adaptive" {
			saved += float64(st.RaysSaved)
			adaptiveBudget += r.work
		}
	}
	res.set("rmcrt.steps", steps, "count", len(recs), "DDA steps of solved jobs, from shard status")
	res.set("rmcrt.steps_per_ray", ratio(steps, rays), "count", len(recs), "")
	res.set("rmcrt.rays_saved_ratio", ratio(saved, adaptiveBudget), "ratio", len(recs), "adaptive rays saved / ray cap budget")
	res.set("rmcrt.bytes_per_step_computed", float64(packedCellBytes()), "bytes", 1,
		"computed: one packed cell record read per DDA step")

	n := float64(nComplete)
	for _, l := range layers {
		res.set(l+".self_ms", ratio(selfSum[l], n), "ms", nComplete, "mean per job")
		if l != "rmcrt" {
			res.set(l+".wait_ms", ratio(waitSum[l], n), "ms", nComplete, "mean per job")
		}
	}
	res.set("trace.reconciled_ratio", ratio(float64(nReconciled), float64(nJobs)), "ratio", nJobs,
		fmt.Sprintf("jobs whose stages sum to client latency within max(1 ms, 1%%); worst residual %.3f ms", ms(worst)))
	var lat []float64
	for _, r := range recs {
		if r.ok {
			lat = append(lat, r.latencyMs())
		}
	}
	res.set("trace_overhead_ratio", ratio(median(lat), untracedP50), "ratio", len(lat), "traced / untraced latency_p50_ms")

	res.printf("stage breakdown (traced, mean ms per job over %d joined jobs; sum checked against latency):", nComplete)
	for k, name := range stageNames {
		res.printf("  %-24s %10.3f  %5.1f%%", name, ratio(stageSum[k], n), 100*ratio(stageSum[k], latSum))
	}
	res.printf("  %-24s %10.3f  (client-measured mean latency)", "total", ratio(latSum, n))
	res.printf("layer self / waiting time (mean ms per job):")
	var tot float64
	for _, l := range layers {
		tot += selfSum[l] + waitSum[l]
		res.printf("  %-10s self %10.3f  wait %10.3f  share %5.1f%%", l, ratio(selfSum[l], n), ratio(waitSum[l], n),
			100*ratio(selfSum[l]+waitSum[l], latSum))
	}
	res.printf("  %-10s sum  %10.3f  vs latency %10.3f  (%d of %d jobs reconciled)", "all", ratio(tot, n), ratio(latSum, n),
		nReconciled, nJobs)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

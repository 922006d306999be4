package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// serveLatency adds the end-to-end metrics of a serving phase and
// returns its latency median.
func serveLatency(res *result, ph servePhase) float64 {
	var lat []float64
	var work float64
	for _, r := range ph.recs {
		if r.ok {
			lat = append(lat, r.latencyMs())
			work += r.work
		}
	}
	p50 := median(lat)
	res.set("latency_p50_ms", p50, "ms", len(lat), "due to verified result; "+quartileNote(lat))
	v, pct, beyond, _ := tail(lat)
	res.set("latency_tail_ms", v, "ms", len(lat), fmt.Sprintf("p%.1f, %d beyond", pct, beyond))
	wall := float64(ph.stop-ph.start) / 1e9
	res.set("throughput_mcellrays_s", ratio(work, wall)/1e6, "Mcellray/s", len(lat),
		fmt.Sprintf("verified cell-rays over %.2f s", wall))
	return p50
}

// loadgenChecks adds the client's validity metrics over recs.
func loadgenChecks(res *result, recs []jobRecord) {
	var lag, decode []float64
	polls := 0
	for _, r := range recs {
		lag = append(lag, float64(r.send-r.due)/1e6)
		polls += r.polls
		if r.ok {
			decode = append(decode, float64(r.decodeNs)/1e6)
		}
	}
	res.set("loadgen.lag_p99_ms", percentile(lag, 99), "ms", len(lag),
		fmt.Sprintf("send time - due time; runs above %.0f ms are invalid", lagLimitMs))
	res.set("loadgen.polls_per_job", ratio(float64(polls), float64(len(recs))), "count", len(recs),
		fmt.Sprintf("client status polls every %v", pollInterval))
	res.set("loadgen.decode_ms.p50", median(decode), "ms", len(decode), "result JSON decode and checks")
}

// runServe runs serve-small or serve-amr. Untraced, the whole time is
// one measured phase after setups set-ups; traced, the first half runs
// untraced and the second half traced on a fresh stack with the same
// inputs.
func runServe(w string, seed uint64, seconds int, traced bool, spansDir string) (*result, error) {
	res := newResult()
	epoch := time.Now()
	phaseLen := time.Duration(seconds) * time.Second
	nSetups := setups
	if traced {
		phaseLen /= 2
		nSetups = 1
	}
	var setupTimes []float64
	base, err := runServePhase(w, seed, phaseLen, nil, epoch, &setupTimes, nSetups)
	if err != nil {
		return nil, err
	}
	var tr servePhase
	var rec *recorder
	if traced {
		rec = newRecorder(epoch)
		if tr, err = runServePhase(w, seed, phaseLen, rec, epoch, &setupTimes, 1); err != nil {
			return nil, err
		}
	}

	all := make([]*jobRecord, 0, len(base.recs)+len(tr.recs))
	for _, ph := range []*servePhase{&base, &tr} {
		for i := range ph.recs {
			all = append(all, &ph.recs[i])
		}
	}
	var specOf func(int) service.Spec
	if w == "serve-small" {
		jobs := smallJobs(seed, int(smallRate*phaseLen.Seconds()+0.5))
		specOf = func(i int) service.Spec { return jobs[i].spec }
	} else {
		next := amrJobs(seed)
		specOf = func(i int) service.Spec { return next(i).spec }
	}
	checked, err := verifyServe(all, specOf)
	if err != nil {
		return nil, err
	}
	for _, r := range all {
		res.attempted++
		if !r.ok {
			res.failed++
			if r.wrong {
				res.wrong++
			}
			res.printf("FAILED job %d (%s): %s", r.idx, r.kind, r.reason)
		}
	}
	res.printf("checks: %d results checked for cell count, key and finite values; %d compared bitwise with in-process Spec.Solve",
		len(all)-res.failed+res.wrong, checked)

	p50 := serveLatency(res, base)
	res.set("setup_s", median(setupTimes), "s", len(setupTimes), "stack up + warm-up job, median")
	loadgenChecks(res, append(append([]jobRecord(nil), base.recs...), tr.recs...))
	res.printf("load: %s, %d jobs attempted in the measured phase; client poll %v, at most %d connections",
		map[string]string{"serve-small": fmt.Sprintf("open loop, Poisson %.0f jobs/s", smallRate),
			"serve-amr": fmt.Sprintf("closed loop, %d outstanding", amrOutstanding)}[w],
		len(base.recs), pollInterval, runtime.NumCPU())
	if traced {
		for _, r := range tr.recs {
			rec.add(span{Name: "loadgen.job", Layer: "loadgen", Start: r.due, End: r.end, Job: r.routerID,
				Shard: r.shard, ShardJob: r.shardJob, Key: r.key})
		}
		analyzeServe(res, tr, p50)
		res.layerAbsent("no scheduler, MPI or device work in a serving workload",
			"rmcrt.serial_step_ms", "sched.raytrace_share", "sched.nonkernel_task_ms", "sched.worker_idle_share",
			"sched.parallel_eff", "commpool.comm_ms_per_step", "simmpi.msgs_per_step", "simmpi.bytes_per_step",
			"gpu.peak_mem_mb", "gpu.makespan_s_simulated", "gpudw.saved_mb")
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w, seed))
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.printf("spans: %d written to %s", len(tr.spans), path)
	}
	return res, nil
}

// runTimestep runs amr-timestep: setups set-ups (rig plus a warm-up
// step), then timesteps for the measured time, then the bitwise checks
// of the first and last steps.
func runTimestep(seed uint64, seconds int, traced bool) (*result, error) {
	res := newResult()
	phaseLen := time.Duration(seconds) * time.Second
	nSetups := setups
	if traced {
		phaseLen /= 2
		nSetups = 1
	}
	var (
		setupTimes []float64
		rig        *amrRig
	)
	for i := 0; i < nSetups; i++ {
		r, secs, err := setUpAMR(seed)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, secs)
		rig = r
	}
	base, wall := runSteps(rig, seed, phaseLen)
	var tr []stepRecord
	if traced {
		tr, _ = runSteps(rig, seed, phaseLen)
	}

	refs := map[uint64][]float64{}
	var serialMs float64
	serial := &serialMs
	if !traced {
		serial = nil
	}
	checked, err := verifySteps(base, refs, serial)
	if err != nil {
		return nil, err
	}
	n2, err := verifySteps(tr, refs, serial)
	if err != nil {
		return nil, err
	}
	checked += n2
	for _, recs := range [][]stepRecord{base, tr} {
		for _, r := range recs {
			res.attempted++
			if !r.ok {
				res.failed++
				if r.wrong {
					res.wrong++
				}
				res.printf("FAILED %s", r.reason)
			}
		}
	}
	res.printf("checks: every step's divQ checked for cell count and finite values; %d steps compared bitwise with the single-node NewMultiLevelBenchmark solve", checked)

	stepMs, lat, work := stepSeries(base)
	p50 := median(lat)
	res.set("latency_p50_ms", p50, "ms", len(lat), "step start to verified divQ; "+quartileNote(lat))
	v, pct, beyond, _ := tail(lat)
	res.set("latency_tail_ms", v, "ms", len(lat), fmt.Sprintf("p%.1f, %d beyond", pct, beyond))
	res.set("throughput_mcellrays_s", work/wall.Seconds()/1e6, "Mcellray/s", len(lat),
		fmt.Sprintf("verified cell-rays over %.2f s", wall.Seconds()))
	res.set("setup_s", median(setupTimes), "s", len(setupTimes), "grid, communicator, devices + warm-up step, median")
	res.set("step_p50_ms", median(stepMs), "ms", len(stepMs), "sched.RunRanks wall time per step")
	res.set("loadgen.lag_p99_ms", 0, "ms", 0, "no load generator: steps run back to back")
	res.printf("load: %d ranks x %d workers, fine %d^3 in %d^3 patches, rr %d, %d rays, simulated K20X per rank; %d steps measured",
		rig.ranks, rig.workers, amrFineN, amrPatchN, amrRR, amrRays, len(base))
	if traced {
		analyzeSteps(res, tr, p50, serialMs, rig)
	}
	return res, nil
}

// quartileNote gives the first and third quartiles of xs.
func quartileNote(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("Q1 %.1f, Q3 %.1f", q[0], q[2])
}

// stepSeries returns the RunRanks times, latencies (ms) and total work
// of the verified steps.
func stepSeries(recs []stepRecord) (stepMs, lat []float64, work float64) {
	for _, r := range recs {
		if r.ok {
			stepMs = append(stepMs, float64(r.wallNs)/1e6)
			lat = append(lat, float64(r.latNs)/1e6)
			work += r.work
		}
	}
	return stepMs, lat, work
}

// analyzeSteps reports the per-layer split of the traced timesteps.
func analyzeSteps(res *result, recs []stepRecord, untracedP50, serialMs float64, rig *amrRig) {
	stepMs, lat, _ := stepSeries(recs)
	var task, traceSec, comm, msgs, bytes, makespan, peak, saved, idle, wallSum []float64
	workers := float64(rig.ranks * rig.workers)
	for _, r := range recs {
		if !r.ok {
			continue
		}
		w := float64(r.wallNs) / 1e9
		task = append(task, r.taskSec)
		traceSec = append(traceSec, r.traceSec)
		comm = append(comm, r.commSec*1e3)
		msgs = append(msgs, float64(r.msgs))
		bytes = append(bytes, float64(r.bytes))
		makespan = append(makespan, r.makespan)
		peak = append(peak, float64(r.peakMem)/(1<<20))
		saved = append(saved, float64(r.savedBytes)/(1<<20))
		idle = append(idle, ratio(workers*w-r.taskSec, workers*w))
		wallSum = append(wallSum, w)
	}
	n := len(task)
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	stepP50 := median(stepMs)
	res.set("sched.raytrace_share", ratio(sum(traceSec), sum(task)), "ratio", n, "ray-trace task time / all task time")
	res.set("sched.nonkernel_task_ms", (sum(task)-sum(traceSec))/float64(max(n, 1))*1e3, "ms", n, "per step, all ranks")
	res.set("sched.worker_idle_share", median(idle), "ratio", n,
		fmt.Sprintf("(workers x step wall - task time) / (workers x step wall), %d workers", int(workers)))
	res.set("rmcrt.self_ms", sum(traceSec)/float64(max(n, 1))*1e3, "ms", n, "ray-trace task time per step, all ranks")
	res.set("rmcrt.solve_ms.p50", median(scale(traceSec, 1e3)), "ms", n, "ray-trace task time per step, all ranks")
	res.set("commpool.comm_ms_per_step", median(comm), "ms", n, "workers' MPI progress time through the request pool")
	res.set("simmpi.msgs_per_step", median(msgs), "count", n, "")
	res.set("simmpi.bytes_per_step", median(bytes), "bytes", n, "")
	res.set("gpu.peak_mem_mb", median(peak), "MB", n,
		"simulated device allocations; the distributed solve launches its kernel without device buffers, so 0")
	res.set("gpu.makespan_s_simulated", median(makespan), "s", n, "simulated K20X timeline, max over ranks")
	res.set("gpudw.saved_mb", median(saved), "MB", n,
		"level-database PCIe bytes saved; the distributed solve does not stage through gpudw, so 0")
	res.set("rmcrt.serial_step_ms", serialMs, "ms", 1, "single-node one-core solve of step 0 (the verification reference)")
	res.set("sched.parallel_eff", ratio(serialMs, float64(runtime.NumCPU())*stepP50), "ratio", n,
		fmt.Sprintf("serial_step_ms / (%d x step_p50_ms)", runtime.NumCPU()))
	res.set("trace_overhead_ratio", ratio(median(lat), untracedP50), "ratio", len(lat), "traced / untraced latency_p50_ms")
	res.set("trace.reconciled_ratio", 1, "ratio", n, "per step: workers x wall = task time + idle, by construction")
	res.layerAbsent("no HTTP serving layer in amr-timestep",
		"cluster.submit_ms.p50", "cluster.dispatch_wait_ms.p50", "cluster.place_ms.p50", "cluster.notice_lag_ms.p50",
		"cluster.polls_per_job", "cluster.poll_useful_ratio", "cluster.fetch_ms.p50", "cluster.result_ms.p50",
		"cluster.reroutes", "cluster.affinity_hit_ratio", "cluster.self_ms", "cluster.wait_ms", "resilience.breaker_opens",
		"service.submit_ms.p50", "service.queue_wait_ms.p50", "service.queue_wait_ms.tail",
		"service.result_encode_ms.p50", "service.result_bytes.p50", "service.result_cache_hit_ratio",
		"service.coalesced_ratio", "service.packed_hit_ratio", "service.rejected", "service.self_ms", "service.wait_ms",
		"loadgen.polls_per_job", "loadgen.decode_ms.p50", "loadgen.self_ms", "loadgen.wait_ms")
	res.layerAbsent("the scheduler's ray-trace tasks report no per-path step counts",
		"rmcrt.ns_per_step.gray", "rmcrt.ns_per_step.scatter", "rmcrt.ns_per_step.spectral",
		"rmcrt.ns_per_step.adaptive", "rmcrt.steps", "rmcrt.steps_per_ray", "rmcrt.rays_saved_ratio")
	res.set("rmcrt.bytes_per_step_computed", float64(packedCellBytes()), "bytes", 1,
		"computed: one packed cell record read per DDA step")

	res.printf("timestep breakdown (traced, per step over %d steps, %d workers):", n, int(workers))
	wallTot := sum(wallSum) * workers
	res.printf("  %-22s %10.3f ms  %5.1f%% of worker time", "ray-trace tasks", sum(traceSec)/float64(max(n, 1))*1e3, 100*ratio(sum(traceSec), wallTot))
	res.printf("  %-22s %10.3f ms  %5.1f%%", "other tasks", (sum(task)-sum(traceSec))/float64(max(n, 1))*1e3, 100*ratio(sum(task)-sum(traceSec), wallTot))
	res.printf("  %-22s %10.3f ms  %5.1f%%", "idle / MPI progress", (wallTot-sum(task))/float64(max(n, 1))*1e3, 100*ratio(wallTot-sum(task), wallTot))
	res.printf("  %-22s %10.3f ms  (workers x mean step wall)", "total", wallTot/float64(max(n, 1))*1e3)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// packedCellBytes is the size of the tracer's packed cell record.
func packedCellBytes() uintptr { return unsafe.Sizeof(rmcrt.PackedCell{}) }

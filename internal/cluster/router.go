package cluster

import (
	"hash/fnv"

	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// PolicyAffinity is the router's one routing policy: it routes by the
// spec's property-shaping content (Spec.AffinityKey) via rendezvous
// hashing, so jobs that can share a warm packed-table cache entry land
// on the same shard — the distributed analog of the paper's shared
// per-node level database. When the home shard cannot take the job
// (at the MaxInflightPerShard cap, unhealthy, draining or tripped) the
// job spills to the least-loaded eligible shard instead of queueing
// behind its siblings.
const PolicyAffinity = "affinity"

// rendezvousWeight is the highest-random-weight score of key on shard:
// a 64-bit FNV-1a over key|shard. Rendezvous hashing keeps the
// key→shard map stable under shard loss — only the dead shard's keys
// remap, so a failover does not shuffle every warm cache in the fleet.
func rendezvousWeight(key, shard string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{'|'})
	_, _ = h.Write([]byte(shard))
	return h.Sum64()
}

// affinityRouter picks the shard a job is placed on: its rendezvous
// home when that is among the candidates, else the least-loaded
// candidate. It needs the full registry to find a job's home even when
// the home is currently ineligible.
type affinityRouter struct {
	shards *ShardRegistry

	mHits, mSpills *metrics.Counter
	gRatio         *metrics.FloatGauge
}

func newAffinityRouter(shards *ShardRegistry, reg *metrics.Registry) *affinityRouter {
	return &affinityRouter{
		shards:  shards,
		mHits:   reg.Counter("router_affinity_hits_total", "jobs placed on their affinity home shard"),
		mSpills: reg.Counter("router_affinity_spills_total", "jobs spilled off a full or unavailable home shard"),
		gRatio:  reg.FloatGauge("router_affinity_hit_ratio", "fraction of placements that landed on the affinity home shard"),
	}
}

// home returns the job's rendezvous winner over every non-draining
// shard, dead or alive: health flaps must not remap keys, or the warm
// cache the policy exists for would be abandoned on every blip.
func (a *affinityRouter) home(key string) *Shard {
	var best *Shard
	var bestW uint64
	for _, s := range a.shards.Shards() {
		if s.State() == ShardDraining {
			continue
		}
		if w := rendezvousWeight(key, s.Name()); best == nil || w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// Pick places job on one of candidates, the shards currently eligible
// (healthy, not draining, under the dispatch cap); candidates is never
// empty.
func (a *affinityRouter) Pick(job *Job, candidates []*Shard) *Shard {
	home := a.home(job.affinityKey)
	for _, c := range candidates {
		if c == home {
			a.record(true)
			return home
		}
	}
	a.record(false)
	return leastLoaded(candidates)
}

// leastLoaded picks the candidate with the fewest inflight jobs,
// breaking ties by configuration order for determinism.
func leastLoaded(candidates []*Shard) *Shard {
	best, bestLoad := candidates[0], candidates[0].Inflight()
	for _, s := range candidates[1:] {
		if n := s.Inflight(); n < bestLoad {
			best, bestLoad = s, n
		}
	}
	return best
}

func (a *affinityRouter) record(hit bool) {
	if hit {
		a.mHits.Inc()
	} else {
		a.mSpills.Inc()
	}
	h, s := a.mHits.Value(), a.mSpills.Value()
	if h+s > 0 {
		a.gRatio.Set(float64(h) / float64(h+s))
	}
}

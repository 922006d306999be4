// Package scenarios is the named workload matrix: parameterized
// generators widening physics coverage beyond Burns & Christon —
// scattering-media sweeps, wall-flux and radiometer workloads, moving
// hot-spot sequences that stress PackedCache invalidation — plus the
// serving-side smoke and overload profiles. Each scenario is a plain
// workload.Spec usable identically by cmd/loadgen and by tests.
package scenarios

import (
	"sort"

	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
)

// Scenario is one named, self-describing workload.
type Scenario struct {
	Name        string
	Description string
	Spec        workload.Spec
}

// all is the scenario registry, built once at init.
var all = map[string]Scenario{}

func register(s Scenario) {
	s.Spec.Name = s.Name
	all[s.Name] = s
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	out := make([]string, 0, len(all))
	for name := range all {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns the named scenario.
func Get(name string) (Scenario, bool) {
	s, ok := all[name]
	return s, ok
}

func init() {
	// smoke: the per-PR CI profile — one client per SLO class, tiny
	// well-under-capacity jobs, seconds-scale, fully deterministic
	// accounting (distinct seeds defeat the result cache, so every
	// submission is a real solve).
	register(Scenario{
		Name:        "smoke",
		Description: "seconds-scale mixed-class determinism smoke (CI per-PR)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{
			{
				Name: "interactive", Jobs: 6, Class: service.ClassInteractive,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 200},
				Job: workload.JobDist{
					N:    workload.IntDist{Choices: []int{8, 10}},
					Rays: workload.IntDist{Min: 4, Max: 8}, DistinctSeeds: true,
				},
			},
			{
				Name: "batch", Jobs: 6, Class: service.ClassBatch,
				Arrival: workload.Arrival{Process: workload.ArrivalGamma, Shape: 2, Scale: 0.002},
				Job: workload.JobDist{
					Kind: service.KindUniform,
					N:    workload.IntDist{Choices: []int{10, 12}},
					Rays: workload.IntDist{Min: 5, Max: 10}, TwoLevelFraction: 0.5,
					DistinctSeeds: true,
				},
			},
			{
				Name: "scavenger", Jobs: 6, Class: service.ClassBestEffort,
				Arrival: workload.Arrival{Process: workload.ArrivalWeibull, Shape: 0.8, Scale: 0.003},
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 6}, DistinctSeeds: true,
				},
			},
		}},
	})

	// scattering-sweep: radiative equilibrium (wall σT⁴ equals the
	// medium's, black walls) swept across scattering coefficients.
	// Scattering redistributes intensity but conserves energy, so divQ
	// stays ≈ 0 at every σ_s — the invariant the physics test asserts
	// through the service path.
	register(Scenario{
		Name:        "scattering-sweep",
		Description: "equilibrium scattering-media sweep (divQ ≈ 0 at every σ_s)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{{
			Name: "sweep", Jobs: 10, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 2,
			Job: workload.JobDist{
				Kind: service.KindUniform, Kappa: 1, SigmaT4: 1,
				WallEmissivity: 1, WallSigmaT4: 1,
				Scatter: []float64{0, 0.5, 1, 2, 5},
				N:       workload.IntDist{Const: 8},
				Rays:    workload.IntDist{Const: 16}, DistinctSeeds: true,
			},
		}}},
	})

	// wall-flux: optically thin cold medium inside hot black walls. In
	// the thin limit every cell sees the walls' blackbody field, so
	// divQ ≈ −4κσT⁴_wall uniformly.
	register(Scenario{
		Name:        "wall-flux",
		Description: "thin cold medium, hot black walls (divQ ≈ −4κσT⁴_wall)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{{
			Name: "wall", Jobs: 6, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 2,
			Job: workload.JobDist{
				Kind: service.KindUniform, Kappa: 1e-4, SigmaT4: 1e-12,
				WallEmissivity: 1, WallSigmaT4: 4,
				N:    workload.IntDist{Const: 8},
				Rays: workload.IntDist{Const: 64}, DistinctSeeds: true,
			},
		}}},
	})

	// radiometer: many small latency-sensitive point measurements of a
	// hot-wall enclosure — the interactive-heavy profile.
	register(Scenario{
		Name:        "radiometer",
		Description: "high-rate small interactive hot-wall measurements",
		Spec: workload.Spec{Clients: []workload.ClientSpec{{
			Name: "radiometer", Count: 2, Jobs: 8, Class: service.ClassInteractive,
			Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 100},
			Job: workload.JobDist{
				Kind: service.KindUniform, Kappa: 0.1, SigmaT4: 1e-12,
				WallEmissivity: 1, WallSigmaT4: 1,
				N:    workload.IntDist{Const: 6},
				Rays: workload.IntDist{Min: 8, Max: 16}, DistinctSeeds: true,
			},
		}}},
	})

	// hotspot-march: a hot spot marching through 4 positions, visiting
	// each 3 times with distinct solver seeds. Every move reshapes the
	// property fields — a new packed-table key, so PackedCache builds
	// == 4; every revisit shares the warm table, so hits == 4·(3−1).
	// Sequential (inflight 1) so the accounting is exact.
	register(Scenario{
		Name:        "hotspot-march",
		Description: "moving hot spot: packed-table invalidation per move, reuse per revisit",
		Spec: workload.Spec{Clients: []workload.ClientSpec{{
			Name: "march", Jobs: 12, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 1,
			Job: workload.JobDist{
				Kind: service.KindHotSpot, Kappa: 1, SigmaT4: 1,
				HotPositions: [][3]int{{0, 0, 0}, {4, 0, 0}, {4, 4, 0}, {4, 4, 4}},
				HotN:         4, HotKappa: 5, HotSigmaT4: 8,
				N:    workload.IntDist{Const: 8},
				Rays: workload.IntDist{Const: 8}, DistinctSeeds: true,
			},
		}}},
	})

	// overload: sustained above-capacity open-loop pressure from the
	// scavenger class with an interactive trickle riding on top — the
	// soak profile for per-class queue-full/deadline accounting and
	// priority differentiation.
	register(Scenario{
		Name:        "overload",
		Description: "above-capacity best-effort flood + interactive trickle (soak)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{
			{
				Name: "flood", Count: 2, Jobs: 40, Class: service.ClassBestEffort,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 400},
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 12},
					Rays: workload.IntDist{Const: 30}, DistinctSeeds: true,
				},
			},
			{
				Name: "fg", Jobs: 10, Class: service.ClassInteractive,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 50},
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 8}, DistinctSeeds: true,
				},
			},
		}},
	})

	// abuse: one client hammering at ~10x the compliant interactive
	// rate with the *same* job size — the only abusive variable is the
	// rate, so the soak isolates admission. Against an edge with
	// per-client admission (-client-rate) the abuser is shed
	// 429-at-the-edge while the compliant client's latency stays near
	// its no-abuse baseline. Deadlines ride along so queue-stranded
	// abuse jobs fast-fail instead of occupying workers.
	register(Scenario{
		Name:        "abuse",
		Description: "10x-rate abusive client vs compliant interactive (admission isolation soak)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{
			{
				Name: "abuser", Jobs: 60, Class: service.ClassBestEffort,
				Arrival:    workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 500},
				DeadlineMs: 30000,
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 8}, DistinctSeeds: true,
				},
			},
			{
				Name: "compliant", Jobs: 12, Class: service.ClassInteractive,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 50},
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 8}, DistinctSeeds: true,
				},
			},
		}},
	})

	// spectral-bands: K-band non-gray solves through the fused K-band
	// ray walk — all bands share one geometric cursor per ray, so a
	// K-band job costs one DDA march (not K). The sweep
	// cycles K across jobs; the wide κ ladder (spread 16) includes
	// near-transparent window bands that a gray mean coefficient would
	// hold in.
	register(Scenario{
		Name:        "spectral-bands",
		Description: "K-band spectral solves fused into one ray walk (non-gray window effect)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{
			{
				Name: "bands2", Jobs: 4, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 2,
				Job: workload.JobDist{
					Kind: service.KindUniform, Kappa: 1, SigmaT4: 1,
					WallEmissivity: 1, WallSigmaT4: 1,
					SpectralBands: 2, SpectralSpread: 4,
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 12}, DistinctSeeds: true,
				},
			},
			{
				Name: "bands4", Jobs: 4, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 2,
				Job: workload.JobDist{
					Kind: service.KindUniform, Kappa: 1, SigmaT4: 1,
					WallEmissivity: 1, WallSigmaT4: 1,
					SpectralBands: 4, SpectralSpread: 16,
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 8}, DistinctSeeds: true,
				},
			},
		}},
	})

	// adaptive-budget: every job runs under an adaptive ray budget with
	// a generous max — smooth benchmark media converge far below the
	// cap, so the scenario demonstrates (and its test asserts, via the
	// job-status rays_saved counter) that adaptive budgets trace
	// measurably fewer rays than the fixed budget they're priced at.
	register(Scenario{
		Name:        "adaptive-budget",
		Description: "adaptive ray budgets: SEM-converged early stop vs fixed-budget pricing",
		Spec: workload.Spec{Clients: []workload.ClientSpec{{
			Name: "adaptive", Jobs: 6, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 2,
			Job: workload.JobDist{
				AdaptiveFraction: 1, AdaptiveRelTol: 0.05, AdaptiveMinRays: 8,
				N:    workload.IntDist{Const: 10},
				Rays: workload.IntDist{Const: 64}, DistinctSeeds: true,
			},
		}}},
	})

	// mixed: every arrival process, mode and class in one workload —
	// the golden-trace profile exercising the full generator surface.
	register(Scenario{
		Name:        "mixed",
		Description: "all arrival processes, modes and classes (golden-trace profile)",
		Spec: workload.Spec{Clients: []workload.ClientSpec{
			{
				Name: "poisson-open", Count: 2, Jobs: 5, Class: service.ClassInteractive,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 150},
				Job: workload.JobDist{
					N:    workload.IntDist{Choices: []int{8, 10, 12}, Weights: []float64{2, 1, 1}},
					Rays: workload.IntDist{Min: 4, Max: 12}, DistinctSeeds: true,
				},
			},
			{
				Name: "gamma-closed", Jobs: 6, Mode: workload.ModeClosed, Inflight: 2,
				ClassMix: map[string]float64{service.ClassBatch: 3, service.ClassBestEffort: 1},
				Arrival:  workload.Arrival{Process: workload.ArrivalGamma, Shape: 0.7, Scale: 0.004},
				Job: workload.JobDist{
					Kind: service.KindUniform, Kappa: 2, SigmaT4: 1,
					Scatter: []float64{0, 1},
					N:       workload.IntDist{Const: 10},
					Rays:    workload.IntDist{Const: 10}, TwoLevelFraction: 0.4,
					DistinctSeeds: true,
				},
			},
			{
				Name: "weibull-burst", Jobs: 6, Class: service.ClassBestEffort,
				Arrival: workload.Arrival{Process: workload.ArrivalWeibull, Shape: 0.6, Scale: 0.002},
				Job: workload.JobDist{
					Kind:         service.KindHotSpot,
					HotPositions: [][3]int{{0, 0, 0}, {2, 2, 2}},
					HotN:         3, HotKappa: 4, HotSigmaT4: 6,
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 6}, DistinctSeeds: true,
				},
			},
		}},
	})
}

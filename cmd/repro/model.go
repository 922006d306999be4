package main

import (
	"fmt"
	"time"

	"github.com/uintah-repro/rmcrt/internal/commpool"
	"github.com/uintah-repro/rmcrt/internal/perfmodel"
	"github.com/uintah-repro/rmcrt/internal/sim"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// tableINodes are the node counts of Table I.
var tableINodes = []int{512, 1024, 2048, 4096, 8192, 16384}

// paperTableI is Table I as published: before (s), after (s), speedup.
var paperTableI = [3][]float64{
	{6.25, 2.68, 1.26, 0.89, 0.79, 0.73},
	{1.42, 1.18, 0.54, 0.36, 0.30, 0.23},
	{4.40, 2.27, 2.33, 2.47, 2.63, 3.17},
}

// tableIModel is the calibrated model of Table I (LARGE CPU benchmark,
// 262k patches), row for row beside the published values.
func tableIModel() *table {
	cols := []string{"#Nodes;%s"}
	for _, n := range tableINodes {
		cols = append(cols, fmt.Sprintf("%d;%%.2f", n))
	}
	t := newTable("model", cols...)
	rows := sim.TableI(perfmodel.Titan(), tableINodes)
	for i, q := range []string{"before (s)", "after (s)", "speedup"} {
		paper, ours := []any{"paper " + q}, []any{"ours " + q}
		for j, r := range rows {
			paper = append(paper, paperTableI[i][j])
			ours = append(ours, [3]float64{r.Before, r.After, r.Speedup}[i])
		}
		t.add(paper...)
		t.add(ours...)
	}
	return t
}

// runTable1 adds to the model the measured drain: 16 worker goroutines
// (Titan's threads per node) draining each run's per-node message load
// through the legacy and the wait-free container.
func runTable1(options) (record, error) {
	drainT := newTable("drain", "nodes;%d", "msgs;%d", "legacy (s);%.4f", "wait-free (s);%.4f", "speedup;%.2f")
	drainT.Varies = true
	p := perfmodel.Large(8)
	for _, n := range tableINodes {
		est := p.CoarseGather(n).Total(p.HaloExchange(n))
		msgs := est.MsgsSent + est.MsgsRecv
		legacy := drain(commpool.NewLegacyVector(), msgs)
		waitFree := drain(commpool.NewPool(), msgs)
		drainT.add(n, msgs, legacy.Seconds(), waitFree.Seconds(), float64(legacy)/float64(waitFree))
	}
	return tableSet{tableIModel(), drainT}, nil
}

// drain pre-posts msgs receives into c, the bulk-synchronous posting
// pattern of a radiation timestep, then times 16 workers draining them
// while one producer sends the matching messages.
func drain(c commpool.Container, msgs int) time.Duration {
	comm := simmpi.NewComm(2)
	for i := 0; i < msgs; i++ {
		c.Add(&commpool.Record{Req: comm.Irecv(1, 0, i)})
	}
	start := time.Now()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		payload := make([]byte, 256)
		for i := 0; i < msgs; i++ {
			comm.Isend(0, 1, i, payload)
		}
	}()
	commpool.ProcessAll(c, 16)
	<-sent
	return time.Since(start)
}

// study is one strong-scaling problem: its name in the report, its
// problem factory and its GPU counts.
type study struct {
	problem string
	mk      func(patchN int) perfmodel.Problem
	gpus    []int
}

var (
	medium = study{"medium", perfmodel.Medium, sim.PowersOf2(16, 1024)}
	large  = study{"large", perfmodel.Large, sim.PowersOf2(256, 16384)}
)

// scalingReport is the record of fig2 and fig3, and their JSON shape.
type scalingReport struct {
	Problem      string             `json:"problem"`
	Rays         int                `json:"rays"`
	WaitFreePool bool               `json:"wait_free_pool"`
	CPU          bool               `json:"cpu"`
	Series       []scalingSeries    `json:"series"`
	Efficiency   map[string]float64 `json:"efficiency,omitempty"`
}

type scalingSeries struct {
	PatchN int            `json:"patch"`
	Points []scalingPoint `json:"points"`
}

type scalingPoint struct {
	GPUs          int     `json:"gpus"`
	PatchesPerGPU int     `json:"patches_per_gpu"`
	CommSeconds   float64 `json:"comm_s"`
	GPUSeconds    float64 `json:"gpu_s"`
	TotalSeconds  float64 `json:"total_s"`
}

// runScaling runs the strong-scaling study at 100 rays/cell for every
// patch size. The machine model is deterministic (modelled costs, no
// wall clock), so the report is bit-stable across runs.
func runScaling(st study, o options) (record, error) {
	cfg := sim.DefaultConfig()
	cfg.WaitFreePool = !o.legacy
	cfg.CPU = o.cpu
	rep := &scalingReport{Problem: st.problem, Rays: 100, WaitFreePool: cfg.WaitFreePool, CPU: cfg.CPU,
		Efficiency: map[string]float64{}}
	at := map[int]sim.Point{} // the 16³ series by GPU count
	// The three curves of Figures 2 and 3.
	for _, pn := range []int{16, 32, 64} {
		p := st.mk(pn)
		p.Rays = rep.Rays
		s, err := sim.StrongScaling(cfg, p, st.gpus)
		if err != nil {
			return nil, err
		}
		js := scalingSeries{PatchN: pn}
		for _, pt := range s.Points {
			js.Points = append(js.Points, scalingPoint(pt))
			if pn == 16 {
				at[pt.GPUs] = pt
			}
		}
		rep.Series = append(rep.Series, js)
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		rep.Efficiency[fmt.Sprintf("patch%d_%d_to_%d", pn, first.GPUs, last.GPUs)] = sim.Efficiency(first, last)
	}
	// The paper's headline efficiencies of the large study.
	if st.problem == "large" {
		rep.Efficiency["patch16_4096_to_8192"] = sim.Efficiency(at[4096], at[8192])
		rep.Efficiency["patch16_4096_to_16384"] = sim.Efficiency(at[4096], at[16384])
	}
	return rep, nil
}

func (r *scalingReport) tables() []*table {
	times := newTable("time", "GPUs;%d", "16³ (s);%.2f", "32³ (s);%.2f", "64³ (s);%.2f")
	for i, pt := range r.Series[0].Points {
		times.add(pt.GPUs, pt.TotalSeconds, r.Series[1].Points[i].TotalSeconds, r.Series[2].Points[i].TotalSeconds)
	}
	if r.Problem != "large" {
		return []*table{times}
	}
	eff := newTable("efficiency", "16³ patches;%s", "paper;%.0f%%", "ours;%.0f%%")
	eff.add("4096 → 8192 GPUs", 96.0, 100*r.Efficiency["patch16_4096_to_8192"])
	eff.add("4096 → 16384 GPUs", 89.0, 100*r.Efficiency["patch16_4096_to_16384"])
	return []*table{times, eff}
}

// runAblation reports the design-choice sensitivities DESIGN.md calls
// out: GPU occupancy vs patch size, the data volume of the halo and
// refinement-ratio knobs, and the communication layer.
func runAblation(options) (record, error) {
	m := perfmodel.Titan()
	occ := newTable("occupancy", "patch;%d³", "cells/kernel;%d", "GPU efficiency;%.0f%%")
	for _, pn := range []int{8, 16, 32, 64} {
		occ.add(pn, pn*pn*pn, 100*m.GPUEfficiency(pn*pn*pn))
	}
	halo := newTable("halo", "halo (LARGE, 16³ patches);%d", "fine window (B);%d")
	for _, h := range []int{0, 2, 4, 8} {
		p := perfmodel.Large(16)
		p.Halo = h
		halo.add(h, p.FineWindowBytes())
	}
	rr := newTable("refinement", "RR (512³ fine);%d", "coarse;%d³", "replica bytes ×3 props;%d")
	for _, r := range []int{2, 4, 8} {
		cn := int64(512 / r)
		rr.add(r, cn, cn*cn*cn*8*3)
	}
	comm := newTable("comm_layer", "nodes (LARGE CPU);%d", "legacy (s);%.2f", "wait-free (s);%.2f", "speedup;%.2fx")
	for _, r := range sim.TableI(m, []int{512, 4096, 16384}) {
		comm.add(r.Nodes, r.Before, r.After, r.Speedup)
	}
	return tableSet{occ, halo, rr, comm}, nil
}

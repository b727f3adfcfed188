package main

import (
	"fmt"

	"learnedftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/sim"
	"learnedftl/internal/workload"
)

// A workload is one named request mix. It drives one layer hard and the
// others lightly; README.md records why each was chosen.
type workloadSpec struct {
	name string
	// perSecond is the number of host requests each scheme runs per second
	// of --seconds. It is a fixed constant, so the simulated work, and with
	// it every sim_* metric, depends only on (workload, seed, seconds); it
	// was sized so the five measured phases take about --seconds on a
	// 2-core x86-64 container.
	perSecond int
	// openLoop selects sim.RunOpenWith with background GC instead of the
	// closed-loop sim.Run.
	openLoop bool
	build    func(cfg learnedftl.Config, seed int64, requests int) load
}

// load is one scheme's request stream: closed-loop generators or open-loop
// streams, depending on the workload.
type load struct {
	gens    []sim.Generator
	streams []sim.Stream
}

const (
	closedThreads    = 64 // simulated host threads of the closed loops
	tenantStreams    = 32 // open-loop streams per tenant
	readTenantShare  = 0.7
	tenantRateFactor = 0.03 // offered load as a share of the ideal page rate
)

var workloads = []workloadSpec{
	{name: "randread", perSecond: 320_000, build: func(cfg learnedftl.Config, seed int64, requests int) load {
		return load{gens: workload.FIO(workload.RandRead, cfg.LogicalPages(), 1, closedThreads, perThread(requests), seed)}
	}},
	{name: "randwrite", perSecond: 30_000, build: func(cfg learnedftl.Config, seed int64, requests int) load {
		return load{gens: workload.FIO(workload.RandWrite, cfg.LogicalPages(), 1, closedThreads, perThread(requests), seed)}
	}},
	{name: "tenantmix", perSecond: 36_000, openLoop: true, build: tenantMix},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want randread, randwrite or tenantmix)", name)
}

func perThread(requests int) int {
	if n := requests / closedThreads; n > 0 {
		return n
	}
	return 1
}

// tenantMix is a WebSearch1-like read tenant (70% of the load) and a
// Systor17-like mixed tenant sharing the device under Poisson arrivals.
// The seed goes into copies of both trace specs, which seeds their request
// generators and their arrival processes alike.
func tenantMix(cfg learnedftl.Config, seed int64, requests int) load {
	ws, sys := workload.WebSearch1, workload.Systor17
	ws.Seed, sys.Seed = seed, seed+7777
	pageKB := float64(cfg.Geometry.PageSize) / 1024
	mixPages := readTenantShare*ws.AvgKB/pageKB + (1-readTenantShare)*sys.AvgKB/pageKB
	total := tenantRateFactor * idealPageRate(cfg) / mixPages
	perTenant := float64(requests / 2)
	lp := cfg.LogicalPages()
	streams := ws.TenantStreams(lp, tenantStreams, perTenant/float64(ws.Requests), sim.ArrivalPoisson, total*readTenantShare)
	streams = append(streams, sys.TenantStreams(lp, tenantStreams, perTenant/float64(sys.Requests), sim.ArrivalPoisson, total*(1-readTenantShare))...)
	return load{streams: streams}
}

// idealPageRate is the 4 KB random-read rate of a perfectly striped device
// with every chip busy: the anchor the repository's open-loop experiments
// use for offered load.
func idealPageRate(cfg learnedftl.Config) float64 {
	return float64(cfg.Geometry.Chips()) * float64(nand.Second) / float64(cfg.Timing.ReadLatency)
}

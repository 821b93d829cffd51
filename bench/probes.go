package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/units"
)

// probeRounds is how many times each layer probe repeats; it reports the
// median round.
const probeRounds = 9

// probeNetsim times an all-to-all shuffle on a bare engine at shuffle-wide's
// machine count — every flow in one max-min component, the shape whose
// rerate cost the ROADMAP's netsim item targets — and returns host
// nanoseconds per flow, from the first Transfer to the last completion.
func probeNetsim() (float64, error) {
	n := shuffleMachines
	flows := n * (n - 1)
	per := make([]float64, probeRounds)
	for r := range per {
		eng := sim.NewEngine()
		fab := netsim.NewFabric(eng, n, units.Gbps(1))
		done := 0
		start := time.Now()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					fab.Transfer(src, dst, int64(8+src+dst)*units.MB, func() { done++ })
				}
			}
		}
		eng.Run()
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(flows)
		if done != flows {
			return 0, fmt.Errorf("netsim probe: %d of %d flows completed", done, flows)
		}
	}
	return sample(per).pct(50), nil
}

// whatifShuffleTasks is a what-if sort's map and reduce task count: 8 per
// core on 4 machines of 8 cores.
const whatifShuffleTasks = 8 * 8 * whatifMachines

// probeShuffle times shuffle planning at a what-if sort's map × reduce
// shape: registering every map output, then planning every reducer's
// fetches. It returns host nanoseconds per reducer.
func probeShuffle() (float64, error) {
	per := make([]float64, probeRounds)
	for r := range per {
		start := time.Now()
		tr := shuffle.NewTracker()
		for m := 0; m < whatifShuffleTasks; m++ {
			tr.RegisterMapOutput(0, m, m%whatifMachines, 64*units.MB+int64(m), false)
		}
		parents := []int{0}
		for red := 0; red < whatifShuffleTasks; red++ {
			if _, err := tr.FetchesFor(parents, red, whatifShuffleTasks); err != nil {
				return 0, fmt.Errorf("shuffle probe: %w", err)
			}
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / whatifShuffleTasks
	}
	return sample(per).pct(50), nil
}

package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"avgloc/internal/load"
	"avgloc/internal/registry"
	"avgloc/internal/scenario"
	"avgloc/internal/seedmix"
)

// The serve-fleet load shape. Rates are fixed here, not measured at run
// time, so every run offers the same load: step 2 is the nominal step where
// p50_ms and p99_ms are taken, at about half of the rate the fleet sustains
// with nproc requests in flight (55–65 requests/s on two cores: one
// avgworker at shipped defaults runs one chunk at a time and re-polls an
// empty queue every 200 ms), and step 4 exceeds capacity so the server runs
// saturated; capacity_rps is measured there.
var (
	stepRates = [loadSteps]float64{10, 25, 40, 80}
	// stepShare splits the measuring time between the steps.
	stepShare = [loadSteps]float64{0.05, 0.70, 0.05, 0.20}
)

const (
	// serveInstances is how many server processes a serve run starts, one
	// after the other, each measuring its own sub-plan.
	serveInstances = 5
	// seedmix domains of the sub-plan seeds and the check-sample order.
	planDomain  = 0x50424e43 // "PBNC"
	checkDomain = 0x50424348 // "PBCH"

	nominalStep = 1 // index into stepRates
	overStep    = loadSteps - 1
	// p99LimitMS is the latency limit a step must meet to count towards
	// load.knee_rps.
	p99LimitMS = 100
	// minNominalSamples guards the nominal step's sample count: the fleet is
	// too slow for the thousand samples that would put ten beyond its p99
	// within a run, so p99 rests on a few (METRICS.md), but never on none.
	minNominalSamples = 200
	// warmRate and warmMS shape the warm-up inside set-up: about 30
	// requests, all due at once.
	warmRate = 1000
	warmMS   = 30
	warmSeed = 0x5741524d55502121
	// checkSamples is how many served reports per sub-run are
	// byte-compared against an in-process scenario.Run after it.
	checkSamples = 4
)

// template is one spec shape of the serve mix: n≈1k–4k graphs, none of them
// on blocking (deterministic) procs.
type template struct {
	family, alg string
	params      registry.Values
}

var templates = []template{
	{"regular", "mis/luby", registry.Values{"n": 2048, "d": 6}},
	{"tree", "mis/luby", registry.Values{"n": 4096}},
	{"cycle", "mis/luby", registry.Values{"n": 4096}},
	{"regular", "matching/randluby", registry.Values{"n": 1024, "d": 6}},
	{"tree", "matching/randluby", registry.Values{"n": 2048}},
	{"cycle", "matching/randluby", registry.Values{"n": 2048}},
	{"regular", "coloring/randgreedy", registry.Values{"n": 2048, "d": 6}},
	{"tree", "coloring/randgreedy", registry.Values{"n": 1024}},
	{"cycle", "coloring/randgreedy", registry.Values{"n": 4096}},
}

// basePlan is the plan document shared by warm-up and measurement.
func basePlan(name string, seed uint64) *load.Plan {
	p := &load.Plan{
		Name:          name,
		Seed:          seed,
		WindowMS:      500,
		CacheHitRatio: 0.25,
		Endpoints:     map[string]float64{load.EndpointRun: 6, load.EndpointBatch: 1, load.EndpointCampaign: 1},
		BatchSize:     2,
		CampaignSize:  2,
	}
	for _, t := range templates {
		p.Specs = append(p.Specs, load.SpecMix{
			Name: t.family + "-" + t.alg,
			Spec: scenario.Spec{Graph: t.family, Params: t.params, Algorithm: t.alg, Trials: 4},
		})
	}
	return p
}

// servePlans are the measured plans, one per server instance: the stepped
// Poisson rates over an equal share of the measuring time, each drawn from
// its own stream of the workload seed.
func servePlans(seed uint64, measure time.Duration) ([]*load.Plan, error) {
	var plans []*load.Plan
	for k := 0; k < serveInstances; k++ {
		p, err := servePlan(seedmix.Derive(seed, planDomain, k), measure/serveInstances)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// servePlan is one instance's plan.
func servePlan(seed uint64, measure time.Duration) (*load.Plan, error) {
	p := basePlan("perfbench-serve", seed)
	for k := range stepRates {
		p.Phases = append(p.Phases, load.Phase{
			Name:       stepName(k),
			Arrival:    load.ArrivalPoisson,
			Rate:       stepRates[k],
			DurationMS: int(stepShare[k] * float64(measure.Milliseconds())),
		})
	}
	return p, p.Validate()
}

// warmPlan is the warm-up: a fixed set of requests on a seed of its own,
// the same for every workload seed. They are all due at once, so under the
// generator's in-flight bound of nproc they run closed-loop: the server
// never queues more than it executes, and the warm-up takes as long as
// that fixed work does. Its specs do not pre-warm the measured ones, and
// every run starts measuring from the same server state: the request
// history a server has seen shifts its later CPU cost per request by over
// 10%, which a seeded warm-up would turn into spread between seeds.
func warmPlan() (*load.Plan, error) {
	p := basePlan("perfbench-warmup", warmSeed)
	p.Phases = []load.Phase{{Name: "warmup", Arrival: load.ArrivalPoisson, Rate: warmRate, DurationMS: warmMS}}
	return p, p.Validate()
}

func stepName(k int) string { return fmt.Sprintf("step%d", k+1) }

// checkOrder is the seeded order in which a sub-run's served specs are
// sampled for the byte-identity check: a permutation of its schedule.
func checkOrder(seed uint64, sub, n int) []int {
	rng := rand.New(rand.NewPCG(seedmix.Derive(seed, checkDomain, sub), 0))
	return rng.Perm(n)
}

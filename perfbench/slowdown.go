package main

import (
	"math"
	"math/rand"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// oracle scores mapping decisions the way the online collector realizes
// them: each discretized cell runs one deterministic synthetic job,
// seeded by the cell's ShardHash, and its best M is found by sweeping the
// whole configuration space.
type oracle struct {
	pair  machine.Pair
	cands []config.M
	best  map[feature.BinaryKey]cell
}

type cell struct {
	job  machine.Job
	cost float64
}

func newOracle() *oracle {
	pair := machine.PrimaryPair()
	return &oracle{pair: pair, cands: config.Enumerate(pair.Limits()), best: make(map[feature.BinaryKey]cell)}
}

func (o *oracle) cost(job machine.Job, m config.M) float64 {
	return train.Metric(o.pair, train.Performance, job, m)
}

func (o *oracle) cell(f feature.Vector) cell {
	k := f.Binary()
	if c, ok := o.best[k]; ok {
		return c
	}
	rng := rand.New(rand.NewSource(int64(f.ShardHash())))
	combo := train.Synthesize(f.B(), f.I(), rng)
	c := cell{job: machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint}}
	c.cost = math.Inf(1)
	for _, m := range o.cands {
		c.cost = math.Min(c.cost, o.cost(c.job, m))
	}
	o.best[k] = c
	return c
}

// slowdown is cost(m) / cost(exhaustive best) for the cell of f.
func (o *oracle) slowdown(f feature.Vector, m config.M) float64 {
	c := o.cell(f)
	return o.cost(c.job, m) / c.cost
}

// geomean is the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

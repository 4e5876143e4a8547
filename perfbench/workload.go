package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"heteromap/internal/algo"
)

// spec describes one workload: the deployment the generator drives and
// the traffic it sends. BENCHMARK.json gives the reason for each.
type spec struct {
	name   string
	nodes  int  // serve nodes started
	router bool // a router fronts the nodes
	online bool // nodes run the online learning loop
	batch  int  // items per request; 1 sends /v1/predict
}

// specs are the workloads; guard() fails a run whose workload lost the
// property it was chosen for.
var specs = []spec{
	{name: "hot-direct", nodes: 1, batch: 1},
	{name: "cold-batch", nodes: 1, batch: 16},
	{name: "hot-routed", nodes: 2, router: true, batch: 1},
	{name: "online-drift", nodes: 1, online: true, batch: 1},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// combo is one prediction request as the benchmark encodes it. The
// benchmark writes its own JSON, so a change to the serve package's
// request types cannot change the bytes a workload sends.
type combo struct {
	Model string // "" asks for the node's default model
	Bench string
	V, E  int64
	Deg   int64
	Dia   int64
}

func (c combo) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if c.Model != "" {
		b = append(b, `"model":"`...)
		b = append(b, c.Model...)
		b = append(b, `",`...)
	}
	b = append(b, `"bench":"`...)
	b = append(b, c.Bench...)
	b = append(b, `","vertices":`...)
	b = strconv.AppendInt(b, c.V, 10)
	b = append(b, `,"edges":`...)
	b = strconv.AppendInt(b, c.E, 10)
	b = append(b, `,"max_degree":`...)
	b = strconv.AppendInt(b, c.Deg, 10)
	b = append(b, `,"diameter":`...)
	b = strconv.AppendInt(b, c.Dia, 10)
	return append(b, '}')
}

// request is one pre-encoded HTTP request of a sequence; items index
// the plan's combo table in body order.
type request struct {
	body  []byte
	items []int32
}

// plan is a workload's whole input, generated from the seed before
// anything is timed.
type plan struct {
	spec   spec
	combos []combo
	// phases[p][c] is connection c's request sequence in phase p. Only
	// online-drift has a second phase, entered halfway through the timed
	// run.
	phases [][][]request
	// sample indexes combos whose answers decision_slowdown scores. It is
	// drawn from the request sequences, so it is fixed by the seed.
	sample []int32
	// memo reports that combos repeat, so per-combo expectations are
	// worth caching.
	memo bool
}

const (
	conns      = 1    // closed-loop connections: one scheduler waiting for each answer
	seqLen     = 8192 // requests per connection and phase; sequences wrap
	coldSeqLen = 8192 // cold-batch requests per connection: 8192 x 16 items
	poolCombos = 64
	sampleSize = 512
)

// Grid of the cold-batch workload: every catalog benchmark crossed with
// every discretized input cell (11 levels for each of I1-I4).
const (
	levels    = 11
	gridCells = 9 * levels * levels * levels * levels // 131,769
)

func benchNames() []string {
	var names []string
	for _, b := range algo.All() {
		names = append(names, b.Name)
	}
	return names
}

// newPlan generates the workload's inputs from the seed.
func newPlan(s spec, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(len(s.name))))
	p := &plan{spec: s, memo: s.name != "cold-batch"}
	switch s.name {
	case "cold-batch":
		p.combos = make([]combo, 0, conns*coldSeqLen*s.batch)
		var seqs [][]request
		for c := 0; c < conns; c++ {
			seq := make([]request, coldSeqLen)
			for i := range seq {
				body := append(make([]byte, 0, 128*s.batch), `{"requests":[`...)
				items := make([]int32, s.batch)
				for j := range items {
					cb := gridCombo(rng.Intn(gridCells))
					if j%2 == 0 {
						cb.Model = "tree"
					}
					if j > 0 {
						body = append(body, ',')
					}
					body = cb.appendJSON(body)
					items[j] = int32(len(p.combos))
					p.combos = append(p.combos, cb)
				}
				seq[i] = request{body: append(body, "]}"...), items: items}
			}
			seqs = append(seqs, seq)
		}
		p.phases = [][][]request{seqs}
	case "online-drift":
		calm := socialPool(rng)
		road := roadPool(rng)
		p.combos = append(calm, road...)
		p.phases = [][][]request{
			singleSeqs(rng, p.combos, 0, len(calm)),
			singleSeqs(rng, p.combos, len(calm), len(road)),
		}
	default: // hot-direct, hot-routed
		p.combos = socialPool(rng)
		p.phases = [][][]request{singleSeqs(rng, p.combos, 0, len(p.combos))}
	}
	// The sample is drawn evenly from every phase's sequences.
	per := sampleSize / len(p.phases)
	for _, ph := range p.phases {
		for i := 0; i < per; i++ {
			seq := ph[rng.Intn(len(ph))]
			req := seq[rng.Intn(len(seq))]
			p.sample = append(p.sample, req.items[rng.Intn(len(req.items))])
		}
	}
	return p
}

// singleSeqs builds per-connection sequences of single-prediction
// requests over combos[off:off+n] with an 80/20 hot-set skew.
func singleSeqs(rng *rand.Rand, combos []combo, off, n int) [][]request {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = combos[off+i].appendJSON(nil)
	}
	seqs := make([][]request, conns)
	for c := range seqs {
		seq := make([]request, seqLen)
		for i := range seq {
			k := skewed(rng, n)
			seq[i] = request{body: bodies[k], items: []int32{int32(off + k)}}
		}
		seqs[c] = seq
	}
	return seqs
}

// skewed picks an index with 80% of picks in the first fifth of n.
func skewed(rng *rand.Rand, n int) int {
	hot := max(n/5, 1)
	if rng.Float64() < 0.8 {
		return rng.Intn(hot)
	}
	return rng.Intn(n)
}

// socialPool draws social-network-shaped graphs: 1M-100M vertices, dense
// and high-degree, modest diameter.
func socialPool(rng *rand.Rand) []combo {
	names := benchNames()
	out := make([]combo, poolCombos)
	for i := range out {
		v := int64(1e6 * (1 + rng.Float64()*100))
		deg := int64(10 + rng.Intn(3000))
		out[i] = combo{
			Bench: names[rng.Intn(len(names))],
			V:     v,
			E:     v * (2 + int64(rng.Intn(30))),
			Deg:   deg * (1 + int64(rng.Intn(100))),
			Dia:   int64(10 + rng.Intn(2000)),
		}
	}
	return out
}

// roadPool draws road-network-shaped graphs: 2-4 edges per vertex,
// maximum degree 3-10, diameter 3k-30k.
func roadPool(rng *rand.Rand) []combo {
	names := benchNames()
	out := make([]combo, poolCombos)
	for i := range out {
		v := int64(1e6 * (1 + rng.Float64()*29))
		out[i] = combo{
			Bench: names[rng.Intn(len(names))],
			V:     v,
			E:     v * (2 + int64(rng.Intn(3))),
			Deg:   3 + int64(rng.Intn(8)),
			Dia:   int64(3000 + rng.Intn(27000)),
		}
	}
	return out
}

// Log-normalization anchors of the input variables I1-I4 (paper Section
// III-B). gridCombo inverts them to put a request in a chosen cell; the
// grid test checks that the service's characterization agrees.
var anchors = [4][2]float64{
	{1e6, 2e8},  // vertices
	{2e6, 1e10}, // edges
	{10, 3e6},   // maximum degree
	{9.4, 2622}, // diameter
}

// gridCombo returns the request for cell idx of the cold-batch grid:
// benchmark idx / 11^4, then the I1-I4 levels in base 11.
func gridCombo(idx int) combo {
	names := benchNames()
	var counts [4]int64
	rest := idx
	for k := 3; k >= 0; k-- {
		x := float64(rest%levels) / (levels - 1)
		rest /= levels
		lo, hi := anchors[k][0], anchors[k][1]
		counts[k] = int64(math.Round(lo * math.Pow(hi/lo, x)))
	}
	return combo{Bench: names[rest], V: counts[0], E: counts[1], Deg: counts[2], Dia: counts[3]}
}

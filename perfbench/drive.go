package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/feature"
)

// failedLatency stands for the latency of a failed request: it exceeds
// every limit.
const failedLatency = time.Duration(math.MaxInt64)

// phaseTimes tells the connections when the timed phase and, for
// online-drift, the second traffic phase begin. Connections hold gate
// for reading while a request is in flight; the host-speed reference
// holds it for writing, so its slices run on an idle system.
type phaseTimes struct {
	gate sync.RWMutex
	// window and windows split the timed phase into equal windows; they
	// are set before timedAt.
	window  time.Duration
	windows int
	timedAt atomic.Int64 // unix ns; 0 until the timed phase starts
	shiftAt atomic.Int64 // unix ns of the switch to phase 1; 0 for never
	stopAt  atomic.Int64 // unix ns; 0 until the end is known
}

// connStats is what one connection saw in the timed phase.
type connStats struct {
	attempted, failed int
	preds             int             // correct predictions
	lat               []time.Duration // every timed request's round trip
	wins              []connWindow    // the same, by window of the timed phase
	err               error           // first failure, for the diagnostics
}

type connWindow struct {
	preds int
	lat   []time.Duration
}

// record files one timed request that ended in window w.
func (st *connStats) record(w int, rtt time.Duration, preds int, err error) {
	for len(st.wins) <= w {
		st.wins = append(st.wins, connWindow{})
	}
	win := &st.wins[w]
	st.attempted++
	if err != nil {
		st.failed++
		rtt, preds = failedLatency, 0
		if st.err == nil {
			st.err = err
		}
	}
	st.preds += preds
	win.preds += preds
	st.lat = append(st.lat, rtt)
	win.lat = append(win.lat, rtt)
}

// generator is the closed loop: each connection sends its next request
// only after the previous answer arrived and was checked.
type generator struct {
	plan   *plan
	val    *validator
	base   string
	client *http.Client
	// header, when set, is added to every request (the traced replay
	// uses it to carry the trace id).
	header func(h http.Header, conn, n int)
	// observe, when set, is called after every answered request with its
	// connection, sequence number, request, start time and round trip.
	observe func(conn, n int, req request, start time.Time, rtt time.Duration)
}

func newGenerator(p *plan, v *validator, base string) *generator {
	return &generator{plan: p, val: v, base: base, client: newClient()}
}

// newClient is the generator's transport: one kept-alive connection per
// closed-loop connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// run drives every connection until pt.stopAt and returns per-connection
// statistics of the timed phase.
func (g *generator) run(pt *phaseTimes) []*connStats {
	out := make([]*connStats, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		out[c] = &connStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g.conn(c, pt, out[c])
		}(c)
	}
	wg.Wait()
	g.client.CloseIdleConnections()
	return out
}

func (g *generator) conn(c int, pt *phaseTimes, st *connStats) {
	url := g.base + pathFor(g.plan.spec)
	chk := g.val.checker()
	var buf bytes.Buffer
	for n := 0; ; n++ {
		now := time.Now()
		if stop := pt.stopAt.Load(); stop != 0 && now.UnixNano() >= stop {
			return
		}
		phase := 0
		if s := pt.shiftAt.Load(); s != 0 && now.UnixNano() >= s {
			phase = 1
		}
		seq := g.plan.phases[phase][c]
		req := seq[n%len(seq)]
		pt.gate.RLock()
		preds, rtt, err := g.send(c, n, url, req, chk, &buf)
		end := time.Now()
		pt.gate.RUnlock()
		t0 := pt.timedAt.Load()
		if t0 == 0 || now.UnixNano() < t0 {
			if err != nil && st.err == nil {
				st.err = fmt.Errorf("warm-up: %w", err)
			}
			continue
		}
		if stop := pt.stopAt.Load(); stop != 0 && end.UnixNano() > stop {
			return
		}
		w := 0
		if pt.windows > 1 {
			w = min(int(end.Sub(time.Unix(0, t0))/pt.window), pt.windows-1)
		}
		st.record(w, rtt, preds, err)
	}
}

// send posts one request and validates its answer. The round trip it
// returns runs from sending the request to reading the last byte of the
// answer; checking the answer comes after it.
func (g *generator) send(c, n int, url string, req request, chk *checker, buf *bytes.Buffer) (int, time.Duration, error) {
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(req.body))
	if err != nil {
		return 0, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if g.header != nil {
		g.header(hr.Header, c, n)
	}
	start := time.Now()
	resp, err := g.client.Do(hr)
	if err != nil {
		return 0, time.Since(start), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return 0, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, rtt, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if g.observe != nil {
		g.observe(c, n, req, start, rtt)
	}
	preds, err := chk.response(req, buf.Bytes())
	return preds, rtt, err
}

// ask sends one single-prediction request for combo i outside the
// timed loop and returns the validated answer.
func ask(base string, p *plan, v *validator, i int32) (answer, error) {
	resp, err := httpClient.Post(base+"/v1/predict", "application/json",
		bytes.NewReader(p.combos[i].appendJSON(nil)))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return answer{}, err
	}
	return a, v.check(i, &a)
}

// decisionSlowdown asks the deployment for every distinct cell of the
// sample and scores the answers against the exhaustive best. A cell the
// sample draws twice for the same model is one decision (the second
// answer is the cached first), so it counts once. A sample request that
// fails is counted in st and left out of the score.
func decisionSlowdown(base string, p *plan, v *validator, o *oracle, st *connStats) (float64, error) {
	type decision struct {
		model string
		cell  feature.BinaryKey
	}
	seen := map[decision]bool{}
	var ratios []float64
	for _, i := range p.sample {
		e, err := v.expect(i)
		if err != nil {
			return 0, err
		}
		d := decision{e.model, e.feat.Binary()}
		if seen[d] {
			continue
		}
		seen[d] = true
		st.attempted++
		a, err := ask(base, p, v, i)
		if err != nil {
			st.failed++
			if st.err == nil {
				st.err = fmt.Errorf("decision sample: %w", err)
			}
			continue
		}
		ratios = append(ratios, o.slowdown(e.feat, a.M))
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("decision sample: no request answered: %w", st.err)
	}
	return geomean(ratios), nil
}

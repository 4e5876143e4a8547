package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// The host-speed reference is a fixed job that runs none of the
// program's code. It has the two parts the workloads are made of:
// loopback HTTP round trips to an echo process (this binary started with
// -echo) and forward passes of a fixed dense network. Its slices are
// interleaved with the timed phase while the load is paused, so they see
// the host as the system under test saw it.
const (
	refInterval = 500 * time.Millisecond
	refSettle   = 2 * time.Millisecond // idle time before a slice
	refTrips    = 100                  // round trips per slice
	refBody     = 160                  // request bytes, about a single prediction request
	refReply    = 400                  // reply bytes, about a single prediction answer
	refPasses   = 20                   // dense-network passes per slice
	refWidth    = 128
	refLayers   = 3
)

// Nominal reference times: the host speed the scaled timings are stated
// at.
const (
	refNominalTripUS = 80.0
	refNominalPassUS = 40.0
)

// serveEcho is the echo process: it answers every POST with refReply
// bytes after reading the body.
func serveEcho(addr string) error {
	reply := bytes.Repeat([]byte{' '}, refReply)
	return http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.Write(reply)
	}))
}

// reference is a started echo process and the slices timed against it.
type reference struct {
	p      *proc
	url    string
	client *http.Client
	body   []byte
	w      [][]float64 // dense-network weights
	x, y   []float64
}

func startReference(dir string) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := startProc("reference", self, filepath.Join(dir, "reference.log"), "-echo", addr)
	if err != nil {
		return nil, err
	}
	r := &reference{p: p, url: "http://" + addr + "/", client: newClient(),
		body: bytes.Repeat([]byte{' '}, refBody)}
	r.w = make([][]float64, refLayers)
	for l := range r.w {
		r.w[l] = make([]float64, refWidth*refWidth)
		for i := range r.w[l] {
			r.w[l][i] = float64((i*7+l*13)%17-8) / 64
		}
	}
	r.x, r.y = make([]float64, refWidth), make([]float64, refWidth)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := r.trip()
		if err == nil {
			return r, nil
		}
		if p.exited() || time.Now().After(deadline) {
			r.stop()
			return nil, fmt.Errorf("reference echo process: %v\n%s", err, logTail(p.log))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *reference) trip() (time.Duration, error) {
	start := time.Now()
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), err
}

// pass runs one forward pass of the fixed dense network.
func (r *reference) pass() time.Duration {
	start := time.Now()
	for i := range r.x {
		r.x[i] = float64(i%5) / 4
	}
	for l := range r.w {
		for o := 0; o < refWidth; o++ {
			row := r.w[l][o*refWidth : (o+1)*refWidth]
			var acc float64
			for i, v := range row {
				acc += v * r.x[i]
			}
			r.y[o] = math.Max(acc, 0)
		}
		r.x, r.y = r.y, r.x
	}
	return time.Since(start)
}

// slice runs one slice of the reference job after refSettle of quiet
// and returns its round trips and passes.
func (r *reference) slice() (trips, passes []time.Duration, err error) {
	time.Sleep(refSettle)
	for i := 0; i < refTrips; i++ {
		d, err := r.trip()
		if err != nil {
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
		trips = append(trips, d)
	}
	for i := 0; i < refPasses; i++ {
		passes = append(passes, r.pass())
	}
	return trips, passes, nil
}

// refScale is the factor that restates times at the nominal reference
// speed: the geometric mean of nominal over measured for the two parts,
// each the median of its samples.
func refScale(trips, passes []time.Duration) (k, tripUS, passUS float64) {
	tripUS = median(durations(trips)) / 1e3
	passUS = median(durations(passes)) / 1e3
	return math.Sqrt(refNominalTripUS / tripUS * refNominalPassUS / passUS), tripUS, passUS
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func (r *reference) stop() {
	r.client.CloseIdleConnections()
	r.p.stop()
}

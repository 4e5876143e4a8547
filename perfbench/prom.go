package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

var httpClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is one Prometheus text exposition: series name with labels to
// value.
type scrape map[string]float64

// getScrape fetches url and returns the parsed series and the round trip.
func getScrape(url string) (scrape, time.Duration, error) {
	start := time.Now()
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	s, err := parseProm(resp.Body)
	return s, time.Since(start), err
}

func parseProm(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta is after[name] - before[name].
func delta(before, after scrape, name string) float64 {
	return after[name] - before[name]
}

// sumDelta sums delta over several scrapes pairs (one per node).
func sumDelta(before, after []scrape, name string) float64 {
	t := 0.0
	for i := range before {
		t += delta(before[i], after[i], name)
	}
	return t
}

// histQuantile estimates quantile q of the observations a histogram
// gained between the before and after scrapes of every node, by linear
// interpolation within the bucket, the Prometheus estimate. labels is
// the label set without le, e.g. `stage="queue"`. NaN when nothing was
// observed.
func histQuantile(before, after []scrape, name, labels string, q float64) float64 {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	type bucket struct{ le, n float64 }
	byLE := map[float64]float64{}
	for i := range after {
		for k, v := range after[i] {
			rest, ok := strings.CutPrefix(k, prefix)
			if !ok {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				continue
			}
			byLE[le] += v - before[i][k]
		}
	}
	var bs []bucket
	for le, n := range byLE {
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].n
	lower, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prev {
			if math.IsInf(b.le, 1) {
				return lower
			}
			return lower + (b.le-lower)*(rank-prev)/(b.n-prev)
		}
		lower, prev = b.le, b.n
	}
	return lower
}

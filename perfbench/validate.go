package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/serve"
)

// defaultModel is the model a request without a "model" field must be
// answered by: `heteromap serve -predictor deep` makes Deep.128 the
// default.
const defaultModel = "deep"

// answer is the part of a prediction response the benchmark checks.
type answer struct {
	Model   string   `json:"model"`
	Version uint64   `json:"version"`
	Key     string   `json:"key"`
	M       config.M `json:"m"`
	Error   string   `json:"error"`
}

type batchAnswer struct {
	Responses []answer `json:"responses"`
}

// expectation is what the benchmark knows a combo's answer must satisfy.
type expectation struct {
	feat  feature.Vector
	key   string
	model string
	tree  bool
	treeM config.M // the in-process decision tree's answer, when tree
}

// validator checks answers against the benchmark's own expectations and
// against each other: one model version must give one key one M.
// given holds the last M each (model, version, key) was answered with.
type validator struct {
	plan   *plan
	limits config.Limits
	tree   *dtree.Tree

	mu    sync.Mutex
	memo  map[int32]*expectation
	given map[givenKey]config.M
}

type givenKey struct {
	model   string
	version uint64
	key     string
}

func newValidator(p *plan) *validator {
	limits := machine.PrimaryPair().Limits()
	return &validator{
		plan:   p,
		limits: limits,
		tree:   dtree.New(limits),
		memo:   make(map[int32]*expectation),
		given:  make(map[givenKey]config.M),
	}
}

// expect resolves a combo's expectation; combos of repeating pools are
// resolved once.
func (v *validator) expect(i int32) (*expectation, error) {
	if v.plan.memo {
		v.mu.Lock()
		e := v.memo[i]
		v.mu.Unlock()
		if e != nil {
			return e, nil
		}
	}
	c := v.plan.combos[i]
	feat, err := serve.ResolveFeatures(&serve.PredictRequest{
		Bench: c.Bench, Vertices: c.V, Edges: c.E, MaxDegree: c.Deg, Diameter: c.Dia,
	}, feature.DiscretizationStep)
	if err != nil {
		return nil, fmt.Errorf("combo %d: %w", i, err)
	}
	e := &expectation{feat: feat, key: feat.Key(), model: defaultModel}
	if c.Model != "" {
		e.model = c.Model
	}
	if e.model == "tree" {
		e.tree = true
		e.treeM = v.tree.Predict(feat)
	}
	if v.plan.memo {
		v.mu.Lock()
		v.memo[i] = e
		v.mu.Unlock()
	}
	return e, nil
}

// check validates one answer for combo i.
func (v *validator) check(i int32, a *answer) error {
	e, err := v.expect(i)
	if err != nil {
		return err
	}
	switch {
	case a.Error != "":
		return fmt.Errorf("item error: %s", a.Error)
	case a.Model != e.model:
		return fmt.Errorf("answered by model %q, want %q", a.Model, e.model)
	case a.Key != e.key:
		return fmt.Errorf("key %q, want %q", a.Key, e.key)
	}
	if err := a.M.Validate(v.limits); err != nil {
		return fmt.Errorf("key %s: %w", e.key, err)
	}
	if e.tree && a.M != e.treeM {
		return fmt.Errorf("key %s: tree answer differs from the in-process decision tree", e.key)
	}
	return v.consistent(givenKey{a.Model, a.Version, a.Key}, a.M)
}

// consistent records that gk was answered with m. Each change of a key's
// answer within one version is one failure: the answer that differs
// from the one before it.
func (v *validator) consistent(gk givenKey, m config.M) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	prev, ok := v.given[gk]
	v.given[gk] = m
	if ok && prev != m {
		return fmt.Errorf("key %s got two answers from %s@%d", gk.key, gk.model, gk.version)
	}
	return nil
}

// checker is one connection's view of the validator. Single answers
// repeat byte for byte apart from their trace id, so a body already
// validated for the same combo is not decoded again; its answer still
// goes through the one-key-one-M check.
type checker struct {
	v    *validator
	seen map[string]seenAnswer
	key  []byte
}

type seenAnswer struct {
	gk givenKey
	m  config.M
}

func (v *validator) checker() *checker {
	return &checker{v: v, seen: make(map[string]seenAnswer)}
}

// response validates the body answering req and returns the number of
// predictions it carries.
func (c *checker) response(req request, body []byte) (int, error) {
	if len(req.items) > 1 {
		var ba batchAnswer
		if err := json.Unmarshal(body, &ba); err != nil {
			return 0, fmt.Errorf("decode batch answer: %w", err)
		}
		if len(ba.Responses) != len(req.items) {
			return 0, fmt.Errorf("batch answered %d items, sent %d", len(ba.Responses), len(req.items))
		}
		for j := range ba.Responses {
			if err := c.v.check(req.items[j], &ba.Responses[j]); err != nil {
				return 0, err
			}
		}
		return len(req.items), nil
	}
	if c.v.plan.memo {
		c.key = strconv.AppendInt(c.key[:0], int64(req.items[0]), 10)
		c.key = append(c.key, ' ')
		c.key = appendWithoutTrace(c.key, body)
		if sa, ok := c.seen[string(c.key)]; ok {
			return 1, c.v.consistent(sa.gk, sa.m)
		}
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, fmt.Errorf("decode answer: %w", err)
	}
	if err := c.v.check(req.items[0], &a); err != nil {
		return 0, err
	}
	if c.v.plan.memo {
		c.seen[string(c.key)] = seenAnswer{givenKey{a.Model, a.Version, a.Key}, a.M}
	}
	return 1, nil
}

var traceField = []byte(`,"trace_id":"`)

// appendWithoutTrace appends body to dst with its trace_id field cut out.
func appendWithoutTrace(dst, body []byte) []byte {
	i := bytes.LastIndex(body, traceField)
	if i < 0 {
		return append(dst, body...)
	}
	end := bytes.IndexByte(body[i+len(traceField):], '"')
	if end < 0 {
		return append(dst, body...)
	}
	dst = append(dst, body[:i]...)
	return append(dst, body[i+len(traceField)+end+1:]...)
}

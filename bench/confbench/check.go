package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/service"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Answers are checked outside the solver: a SAT design is rebuilt from
// the wire form against the checker's own parse of the problem and
// passed to core.Verify (device semantics on every route, requirements,
// recomputed scores), and statuses and optima must equal the manifest.

// designFrom rebuilds a design from its wire form against p.
func designFrom(p *core.Problem, dj *service.DesignJSON) (*core.Design, error) {
	if dj == nil {
		return nil, fmt.Errorf("sat result carries no design")
	}
	d := &core.Design{
		FlowPatterns: make(map[usability.Flow]isolation.PatternID, len(dj.Flows)),
		Placements:   make(map[topology.LinkID][]isolation.DeviceID, len(dj.Placements)),
		Isolation:    dj.Isolation,
		Usability:    dj.Usability,
		Cost:         dj.Cost,
		Exact:        dj.Exact,
	}
	for _, f := range dj.Flows {
		d.FlowPatterns[usability.Flow{Src: f.Src, Dst: f.Dst, Svc: f.Svc}] = isolation.PatternID(f.Pattern)
	}
	for _, pl := range dj.Placements {
		link, ok := p.Network.LinkBetween(pl.A, pl.B)
		if !ok {
			return nil, fmt.Errorf("design places devices on a non-existent link %d-%d", pl.A, pl.B)
		}
		for _, dev := range pl.Devices {
			d.Placements[link] = append(d.Placements[link], isolation.DeviceID(dev))
		}
	}
	return d, nil
}

// expectation is what the manifest pins for one op.
type expectation struct {
	mode    string
	status  string
	optimum float64 // optimisation modes only
}

// checkResult verifies one decoded result against p and the manifest.
// tr records the core.Verify span when tracing.
func checkResult(tr *tracer, op int, p *core.Problem, res *service.Result, want expectation) error {
	if res.Degraded {
		return fmt.Errorf("degraded answer (%s)", res.DegradedReason)
	}
	if res.Status != want.status {
		return fmt.Errorf("status %q, manifest says %q", res.Status, want.status)
	}
	if res.Status != "sat" {
		return nil
	}
	d, err := designFrom(p, res.Design)
	if err != nil {
		return err
	}
	if !d.Exact {
		return fmt.Errorf("design is not exact")
	}
	// An optimisation ignores the slider it optimises, so the checker
	// replaces that threshold by the claimed optimum: the design must
	// reach it, and the manifest must agree that nothing better exists.
	q := *p
	switch want.mode {
	case "min-cost":
		q.Thresholds.CostBudget = int64(res.Objective)
	case "max-isolation":
		q.Thresholds.IsolationTenths = 0
	case "max-usability":
		q.Thresholds.UsabilityTenths = 0
	}
	var vr *core.VerifyResult
	tr.timed("core.verify", 0, op, func() { vr, err = core.Verify(&q, d) })
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !vr.OK() {
		return fmt.Errorf("verify: %d violations, first: %s", len(vr.Violations), vr.Violations[0])
	}
	reached := map[string]float64{
		"min-cost": float64(vr.Cost), "max-isolation": vr.Isolation, "max-usability": vr.Usability,
		"decomp": float64(vr.Cost),
	}
	if got, optimising := reached[want.mode]; optimising {
		if math.Abs(got-res.Objective) > 1e-6 {
			return fmt.Errorf("objective %v, but the design reaches %v", res.Objective, got)
		}
		if math.Abs(res.Objective-want.optimum) > 1e-6 {
			return fmt.Errorf("objective %v, manifest optimum %v", res.Objective, want.optimum)
		}
	}
	return nil
}

// decodeResult parses a /v1/synthesize or /v1/whatif response body.
func decodeResult(status int, body []byte) (*service.Result, error) {
	if status != 200 {
		return nil, fmt.Errorf("HTTP %d: %.200s", status, bytes.TrimSpace(body))
	}
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return &res, nil
}

// sameDesign reports whether two designs are identical bit for bit:
// every flow's pattern, every link's devices in order, and the scores.
func sameDesign(a, b *core.Design) bool {
	return a.Isolation == b.Isolation && a.Usability == b.Usability && a.Cost == b.Cost &&
		reflect.DeepEqual(a.FlowPatterns, b.FlowPatterns) && reflect.DeepEqual(a.Placements, b.Placements)
}

// jobIDKey is how an indented result carries its job id.
var jobIDKey = []byte(`"job_id": "`)

// splitJobID cuts a response body around its job id value, so that two
// answers served from the same cache entry compare equal byte for byte.
func splitJobID(body []byte) (head []byte, id string, rest []byte, ok bool) {
	i := bytes.Index(body, jobIDKey)
	if i < 0 {
		return nil, "", nil, false
	}
	i += len(jobIDKey)
	j := bytes.IndexByte(body[i:], '"')
	if j < 0 {
		return nil, "", nil, false
	}
	return body[:i], string(body[i : i+j]), body[i+j:], true
}

// cachedAnswer is a verified reference answer of a repeated spec.
type cachedAnswer struct{ head, rest []byte }

// matches checks a repeat against the reference without decoding it: a
// cache hit must be the verified answer, byte for byte, under a new job
// id. It returns that id.
func (c cachedAnswer) matches(status int, body []byte) (string, error) {
	if status != 200 {
		return "", fmt.Errorf("HTTP %d: %.200s", status, bytes.TrimSpace(body))
	}
	head, id, rest, ok := splitJobID(body)
	if !ok {
		return "", fmt.Errorf("response carries no job id")
	}
	if !bytes.Equal(head, c.head) || !bytes.Equal(rest, c.rest) {
		return id, fmt.Errorf("cached answer differs from the verified one")
	}
	return id, nil
}

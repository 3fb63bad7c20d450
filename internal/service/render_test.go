package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
)

// encoderBytes is what WriteJSON writes for r: json.MarshalIndent with
// an empty prefix and indent, then a newline.
func encoderBytes(r *Result) []byte {
	js, err := json.MarshalIndent(r, "", "")
	if err != nil {
		return nil // a non-finite float writes nothing, and so must appendResult
	}
	return append(js, '\n')
}

// trickyNames exercise every escape the encoder makes.
var trickyNames = []string{
	"", `plain`, `quote " and backslash \`, "<script>&amp;</script>",
	"controls \x00\x01\b\f\n\r\t\x1f\x7f end", "invalid \xff\xfe utf-8 \xe2\x82",
	"separators \u2028 and \u2029", "é ü 日本 🙂", "\"\\/",
}

// fill sets every exported field reachable from v to a non-zero value:
// strings from trickyNames, numbers from seq, slices of two elements.
// A kind it does not know fails the test, so a field of a new kind
// cannot slip past unrendered.
func fill(t *testing.T, v reflect.Value, seq *int) {
	*seq++
	switch v.Kind() {
	case reflect.String:
		v.SetString(trickyNames[*seq%len(trickyNames)] + strconv.Itoa(*seq))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*seq) * 37)
	case reflect.Float64:
		v.SetFloat(123456789.125 * float64(*seq))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), seq)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), seq)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), seq)
			}
		}
	default:
		t.Fatalf("fill: no rule for a %s", v.Type())
	}
}

// TestAppendResultIsTheEncodersBytes: appendResult writes exactly what
// the encoder writes for a Result, for results of every shape — every
// exported field set, the escapes, the float formats, nil against empty
// slices, decomposed and degraded results — and for the results real
// jobs produce.
func TestAppendResultIsTheEncodersBytes(t *testing.T) {
	var full Result
	seq := 0
	fill(t, reflect.ValueOf(&full).Elem(), &seq)

	cases := map[string]*Result{"every exported field set": &full, "zero": {}}
	for i, name := range trickyNames {
		cases["name "+strconv.Itoa(i)] = &Result{
			Status: name, Mode: Mode(name), Fingerprint: name, JobID: name, Text: name,
			Conflict: []string{name, name}, Session: name, DegradedReason: name,
			Design: &DesignJSON{
				Flows:      []FlowPatternJSON{{Name: name}, {Src: 1, Dst: 2, Svc: 3, Pattern: 4, Name: name}},
				Placements: []PlacementJSON{{A: 1, B: 2, Devices: []int{1}, Names: []string{name}}},
			},
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, 1e20, 123456789.125, 0.1, -2.5, 1e-300, math.MaxFloat64} {
		cases["float "+strconv.FormatFloat(f, 'g', -1, 64)] = &Result{
			Objective: f, ElapsedMS: f, Design: &DesignJSON{Isolation: f, Usability: f},
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases["non-finite "+strconv.FormatFloat(f, 'g', -1, 64)] = &Result{ElapsedMS: f}
	}
	cases["nil slices"] = &Result{Design: &DesignJSON{Placements: []PlacementJSON{{}}}}
	cases["empty slices"] = &Result{
		Conflict: []string{},
		Design:   &DesignJSON{Flows: []FlowPatternJSON{}, Placements: []PlacementJSON{{Devices: []int{}, Names: []string{}}}},
	}
	cases["empty placements"] = &Result{Design: &DesignJSON{Flows: []FlowPatternJSON{{}}, Placements: []PlacementJSON{}}}
	cases["decomp with regions"] = &Result{
		Status: "sat", Mode: ModeDecomp, Design: &DesignJSON{Exact: true},
		Decomp: &DecompJSON{Hits: 1, Misses: 2, Regions: []decomp.RegionReport{
			{Key: "r0", Hosts: 3, Flows: 6, Fingerprint: "ab<>", Cached: true, Cost: 5, ElapsedMS: 7},
			{Key: "x0-1", Boundary: true, Escalated: true, Unsat: true},
		}},
	}
	cases["decomp fallback"] = &Result{Status: "unsat", Mode: ModeDecomp, Conflict: []string{"cost"},
		Decomp: &DecompJSON{Fallback: true, FallbackReason: "one region & no <cut>", Conservative: true, ConflictRegion: "stitch", Repaired: 2}}
	cases["degraded"] = &Result{Status: "sat", Mode: ModeMaxIsolation, Objective: 6.5, Degraded: true,
		DegradedReason: "deadline", Design: &DesignJSON{Isolation: 6.5, Usability: 4, Cost: 20}}

	for name, r := range cases {
		want := encoderBytes(r)
		if got := appendResult(nil, r); !bytes.Equal(got, want) {
			t.Errorf("%s: appendResult differs from the encoder\n got: %q\nwant: %q", name, got, want)
		}
		// It appends: what the buffer held stays in front.
		if got := appendResult([]byte("prefix"), r); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s: appendResult does not append to its buffer", name)
		}
	}
	if seq < 40 {
		t.Fatalf("fill set %d values; the reflective case does not reach the design", seq)
	}

	// Results of real jobs: the miss each response carried.
	s, srv := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ query, spec string }{
		{"", smallSpec}, {"", unsatSpec}, {"mode=max-isolation", smallSpec},
		{"mode=min-cost", smallSpec}, {"mode=decomp", twinSpec}, {"", wideSpec(12, 2)},
	} {
		resp, body := postSpec(t, srv.URL+"/v1/synthesize?"+tc.query, tc.spec)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%s: status %d, X-Cache %q: %s", tc.query, resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		j, _ := s.Job(res.JobID)
		jr, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		if want := encoderBytes(jr); !bytes.Equal(body, want) {
			t.Errorf("%s miss: body is not the encoder's\n got: %s\nwant: %s", tc.query, body, want)
		}
	}
}

// FuzzAppendResult holds appendResult to the encoder on results built
// from arbitrary strings, numbers and slice shapes.
func FuzzAppendResult(f *testing.F) {
	for i, name := range trickyNames {
		f.Add(name, name, int64(i), float64(i)*1e-7, 123456789.125, uint8(i))
	}
	f.Add("sat", "h1", int64(-1), 1e21, math.NaN(), uint8(255))
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, f1, f2 float64, shape uint8) {
		r := &Result{
			Status: s1, Mode: Mode(s2), Fingerprint: s2 + s1, ElapsedMS: f2, Cached: shape&1 != 0,
			Degraded: shape&2 != 0, DegradedReason: s2,
		}
		if shape&4 != 0 {
			r.JobID, r.Text, r.Session, r.Objective = s1, s2+s1, s2, f1
		}
		if shape&8 != 0 {
			r.Conflict = []string{s1, s2}
		}
		if shape&16 != 0 {
			r.Design = &DesignJSON{Isolation: f1, Usability: f2, Cost: n, Exact: shape&1 == 0}
			if shape&32 != 0 {
				r.Design.Flows = []FlowPatternJSON{{Src: 1, Dst: 2, Svc: 3, Pattern: int(n), Name: s1}, {Name: s2}}
			}
			if shape&64 != 0 {
				r.Design.Placements = []PlacementJSON{{A: 3, B: 4, Devices: []int{int(n)}, Names: []string{s2}}, {}}
			}
		}
		if shape&128 != 0 {
			r.Decomp = &DecompJSON{FallbackReason: s1, Regions: []decomp.RegionReport{{Key: s2, Cost: n}}}
		}
		if got, want := appendResult(nil, r), encoderBytes(r); !bytes.Equal(got, want) {
			t.Errorf("appendResult differs from the encoder\n got: %q\nwant: %q", got, want)
		}
	})
}

// TestHitBodyHoldsExactlyItsBytes: a stored hit body is one allocation
// of exactly its size — no doubling slack behind head or tail — so the
// cache's memory is CacheEntries × body size, as the design says.
func TestHitBodyHoldsExactlyItsBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, text := range []string{smallSpec, wideSpec(30, 2)} {
		p, err := specParse(text)
		if err != nil {
			t.Fatal(err)
		}
		wait(t, mustSubmit(t, s, p, SubmitOptions{}))
		res := wait(t, mustSubmit(t, s, p, SubmitOptions{}))
		if res.hit == nil {
			t.Fatal("resubmission was not a hit")
		}
		head, tail := res.hit.body()
		if cap(head) != len(head) || cap(tail) != len(tail) {
			t.Errorf("hit body of %d bytes keeps capacity %d + %d behind head and tail",
				len(head)+len(tail), cap(head)-len(head), cap(tail)-len(tail))
		}
	}
}

// TestMissRenderAllocBudget: rendering a fresh 3 120-flow result through
// writeJobResult allocates no more than its output buffer — pooled, so
// in the steady state not even that — and a handful of headers; never a
// value per flow.
func TestMissRenderAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random")
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	p, err := specParse(wideSpec(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	job := mustSubmit(t, s, p, SubmitOptions{})
	res := wait(t, job)
	if res.hit != nil || res.Design == nil || len(res.Design.Flows) < 2000 {
		t.Fatalf("want a solved miss of 2 000+ flows, got hit %v, design %v", res.hit != nil, res.Design != nil)
	}

	rec := httptest.NewRecorder()
	header := rec.Header()
	serve := func() {
		clear(header)
		rec.Body.Reset()
		*rec = httptest.ResponseRecorder{HeaderMap: header, Body: rec.Body}
		writeJobResult(rec, job)
	}
	serve()
	if rec.Header().Get("X-Cache") != "miss" || !bytes.Equal(rec.Body.Bytes(), encoderBytes(res)) {
		t.Fatalf("X-Cache %q; body is the encoder's: %v", rec.Header().Get("X-Cache"), bytes.Equal(rec.Body.Bytes(), encoderBytes(res)))
	}
	size := rec.Body.Len()
	rec.Body.Grow(size)
	if allocs := testing.AllocsPerRun(100, serve); allocs > 8 {
		t.Errorf("rendering a %d-flow miss: %.0f allocations, want at most 8", len(res.Design.Flows), allocs)
	}
	if bytes := bytesPerRun(100, serve); bytes > uint64(size)+4096 {
		t.Errorf("rendering a %d-byte miss allocates %d bytes, more than its output buffer", size, bytes)
	}
	if !strings.HasSuffix(rec.Body.String(), "\n}\n") {
		t.Fatalf("the measured render is not a whole body")
	}
}

// TestResultBodyBytes: a 3 120-flow miss body carries no indentation —
// at most 0.65 of the bytes the same Result takes indented by two
// spaces, the layout every body had before — and decodes to the same
// Result.
func TestResultBodyBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	p, err := specParse(wideSpec(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	job := mustSubmit(t, s, p, SubmitOptions{})
	res := wait(t, job)
	if res.hit != nil || res.Design == nil || len(res.Design.Flows) != 3120 {
		t.Fatalf("want a solved miss of 3 120 flows, got hit %v, design %v", res.hit != nil, res.Design != nil)
	}
	rec := httptest.NewRecorder()
	writeJobResult(rec, job)
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	ratio := float64(rec.Body.Len()) / float64(indented.Len())
	t.Logf("miss body %d bytes, indented %d bytes: %.3f", rec.Body.Len(), indented.Len(), ratio)
	if ratio > 0.65 {
		t.Errorf("miss body is %.3f of the indented encoding, want at most 0.65", ratio)
	}
	var got, want Result
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(indented.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the body decodes to another Result than the indented encoding")
	}
}

// TestResultLengthIsExact: a miss and a hit both declare their body's
// exact length, so neither is sent chunked.
func TestResultLengthIsExact(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	for _, want := range []string{"miss", "hit"} {
		resp, body := postSpec(t, srv.URL+"/v1/synthesize", wideSpec(20, 1))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want {
			t.Fatalf("status %d, X-Cache %q, want 200 and %s: %s", resp.StatusCode, resp.Header.Get("X-Cache"), want, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, for a %d-byte body", want, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestDesignJSONListsFlowsInWireOrder: the wire design lists every flow
// by (src, dst, svc) whatever order its problem lists them in — a spec
// problem in that order already, a campus with its cross-department
// flows last, here a shuffle.
func TestDesignJSONListsFlowsInWireOrder(t *testing.T) {
	p, err := specParse(wideSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syn.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := designJSON(p, d)
	if len(want.Flows) != len(p.Flows) || !slices.IsSortedFunc(want.Flows, func(a, b FlowPatternJSON) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Svc, b.Svc))
	}) {
		t.Fatalf("%d of %d flows, or not in (src, dst, svc) order", len(want.Flows), len(p.Flows))
	}
	shuffled := *p
	shuffled.Flows = slices.Clone(p.Flows)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Flows), func(i, j int) {
		shuffled.Flows[i], shuffled.Flows[j] = shuffled.Flows[j], shuffled.Flows[i]
	})
	if got := designJSON(&shuffled, d); !reflect.DeepEqual(got, want) {
		t.Errorf("a shuffled problem's wire design differs from the sorted one's")
	}
}

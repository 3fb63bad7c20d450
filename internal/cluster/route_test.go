package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"configsynth/internal/service"
)

// countingReader counts the bytes a handler reads of a request body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestOneFrontDoor: through a node's Handler, the service reads, parses
// and fingerprints a synthesis request, and the node only decides where
// it runs. An owned request runs here, a non-owned one is forwarded once,
// a loop-guarded one runs where it landed, an unparseable one is refused
// before anything is routed, and a body that declares more than the
// service's limit is refused without reading a byte of it.
func TestOneFrontDoor(t *testing.T) {
	nodes := startCluster(t, 2, false, nil)
	fp := specFingerprint(t)
	owner, other := nodes[0], nodes[1]
	if owner.node.ring.owner(fp, nil) != owner.id {
		owner, other = other, owner
	}
	forwards := func() int64 {
		return owner.node.forwarded.Load() + other.node.forwarded.Load() +
			owner.node.forwardFails.Load() + other.node.forwardFails.Load()
	}
	post := func(tn *testNode, body io.Reader, declared int64, forwardedBy string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize?timeout=60s", body)
		req.ContentLength = declared
		if forwardedBy != "" {
			req.Header.Set(forwardedHeader, forwardedBy)
		}
		rec := httptest.NewRecorder()
		tn.srv.Handler.ServeHTTP(rec, req)
		return rec
	}
	served := func(what string, rec *httptest.ResponseRecorder, on *testNode, wantForwards int64) {
		t.Helper()
		var res service.Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body)
		}
		if !strings.HasPrefix(res.JobID, on.id+"-") || res.Fingerprint != fp || forwards() != wantForwards {
			t.Errorf("%s: job %s with fingerprint %s after %d forwards; want a job of %s, fingerprint %s, %d forwards",
				what, res.JobID, res.Fingerprint, forwards(), on.id, fp, wantForwards)
		}
	}
	specBody := func() (io.Reader, int64) { return strings.NewReader(clusterSpec), int64(len(clusterSpec)) }

	body, n := specBody()
	served("owned request", post(owner, body, n, ""), owner, 0)
	body, n = specBody()
	served("non-owned request", post(other, body, n, ""), owner, 1)
	if other.node.forwarded.Load() != 1 {
		t.Errorf("non-owned request: %d forwards from the entry node, want 1", other.node.forwarded.Load())
	}
	body, n = specBody()
	served("loop-guarded request", post(other, body, n, "n9"), other, 1)

	rec := post(other, strings.NewReader("not a spec"), -1, "")
	if rec.Code != http.StatusBadRequest || forwards() != 1 {
		t.Errorf("unparseable body: status %d after %d forwards; want 400 and no forward", rec.Code, forwards())
	}

	const limit = 4 << 20 // the service's body limit
	last := strings.LastIndex(clusterSpec, "require 2 4")
	padded := clusterSpec[:last] + strings.Repeat("# "+strings.Repeat("x", 1021)+"\n", limit>>10) + clusterSpec[last:]
	cr := &countingReader{r: strings.NewReader(padded)}
	rec = post(other, cr, int64(len(padded)), "")
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), strconv.Itoa(limit)) || cr.n != 0 || forwards() != 1 {
		t.Errorf("declared oversize body: status %d %s, %d bytes read, %d forwards; want 413 naming the limit, none read, no forward",
			rec.Code, rec.Body, cr.n, forwards())
	}
}

// TestForwardedHitKeepsItsLength: a hit says its Content-Length, and the
// entry node passes it on instead of re-chunking the owner's response.
func TestForwardedHitKeepsItsLength(t *testing.T) {
	nodes := startCluster(t, 2, false, nil)
	owner := nodes[0].node.ring.owner(specFingerprint(t), nil)
	var entry *testNode
	for _, tn := range nodes {
		if tn.id != owner {
			entry = tn
		}
	}
	postSpec(t, entry.url) // solved on the owner
	resp, err := http.Post(entry.url+"/v1/synthesize", "text/plain", strings.NewReader(clusterSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.Header.Get("X-Cache") != "hit" || entry.node.stats().RequestsForwarded != 2 {
		t.Fatalf("X-Cache %q after %d forwards, want a forwarded hit", resp.Header.Get("X-Cache"), entry.node.stats().RequestsForwarded)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("forwarded hit: Content-Length %d, Transfer-Encoding %v for a body of %d bytes",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

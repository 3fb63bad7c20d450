package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"configsynth/internal/core"
)

// handedOver is what the service looks for on a request body.
type handedOver interface {
	Parsed() (*core.Problem, string)
}

// TestLocalOwnerHandsOverItsParse: the router parses and fingerprints a
// request to find its owner. When the owner is this node, the service
// behind it receives that parse with the body — and so does not make it
// again — together with the text it journals. A request that already
// hopped is not parsed here at all, and an oversize one never gets past
// the router.
func TestLocalOwnerHandsOverItsParse(t *testing.T) {
	n := startCluster(t, 1, false, nil)[0].node
	var (
		calls  int
		handed bool
		fp     string
		text   []byte
	)
	h := n.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		var pb handedOver
		if pb, handed = r.Body.(handedOver); handed {
			var p *core.Problem
			if p, fp = pb.Parsed(); p == nil {
				t.Error("handed-over parse has no problem")
			}
		}
		text, _ = io.ReadAll(r.Body)
	}))
	post := func(body string, forwardedBy string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(body))
		if forwardedBy != "" {
			req.Header.Set(forwardedHeader, forwardedBy)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	post(clusterSpec, "")
	if !handed || fp != specFingerprint(t) || string(text) != clusterSpec {
		t.Errorf("local owner: handed %v, fingerprint %q (want %q), text intact %v",
			handed, fp, specFingerprint(t), string(text) == clusterSpec)
	}
	post(clusterSpec, "n9")
	if handed || string(text) != clusterSpec {
		t.Errorf("forwarded request: handed %v, text intact %v; the owner's service parses it, once", handed, string(text) == clusterSpec)
	}
	post("not a spec", "")
	if handed || string(text) != "not a spec" {
		t.Errorf("unparseable body: handed %v, text %q; the service reports the parse error", handed, text)
	}

	calls = 0
	last := strings.LastIndex(clusterSpec, "require 2 4")
	padded := clusterSpec[:last] + strings.Repeat("# "+strings.Repeat("x", 1021)+"\n", maxBodyBytes>>10) + clusterSpec[last:]
	rec := post(padded, "")
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), strconv.Itoa(maxBodyBytes)) || calls != 0 {
		t.Errorf("oversize body: status %d %s, %d calls through; want 413 naming the limit and none", rec.Code, rec.Body, calls)
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

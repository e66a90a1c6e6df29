package server

import (
	"bufferkit/internal/api"

	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bufferkit/internal/chaoskit"
	"bufferkit/internal/fleet"
	"bufferkit/internal/resilience"
	"bufferkit/internal/server/cache"
)

// testFleet is an in-process fleet: n Servers on real loopback listeners,
// so forwards, probes and replication travel over actual HTTP.
type testFleet struct {
	urls    []string
	hosts   []string
	servers []*Server
	httpds  []*http.Server
	tr      *http.Transport
	client  *http.Client
}

// startTestFleet boots n nodes on loopback. part (nil ok) wires every
// node's fleet transport through a shared chaoskit partition script;
// mutate (nil ok) adjusts each node's Config before construction.
func startTestFleet(t *testing.T, n int, part *chaoskit.Partition, mutate func(i int, cfg *Config)) *testFleet {
	t.Helper()
	tf := &testFleet{tr: &http.Transport{}}
	tf.client = &http.Client{Transport: tf.tr}
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		tf.hosts = append(tf.hosts, l.Addr().String())
		tf.urls = append(tf.urls, "http://"+l.Addr().String())
	}
	for i := range ls {
		var rt http.RoundTripper = tf.tr
		if part != nil {
			rt = &chaoskit.PartitionTransport{Self: tf.hosts[i], Part: part, Base: tf.tr}
		}
		cfg := Config{
			Fleet: fleet.Config{
				Self:          tf.urls[i],
				Peers:         tf.urls,
				Replicas:      2,
				ProbeInterval: 100 * time.Millisecond,
				HedgeAfter:    20 * time.Millisecond,
				Transport:     rt,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := New(cfg)
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ls[i])
		tf.servers = append(tf.servers, s)
		tf.httpds = append(tf.httpds, hs)
	}
	return tf
}

func (tf *testFleet) stop() {
	for _, hs := range tf.httpds {
		hs.Close()
	}
	for _, s := range tf.servers {
		s.Close()
	}
	tf.tr.CloseIdleConnections()
}

// killNode closes node i's listener and connections — the process-death
// analogue for in-process tests.
func (tf *testFleet) killNode(i int) {
	tf.httpds[i].Close()
}

// do sends one JSON request to a node and returns status plus raw body.
func (tf *testFleet) do(t testing.TB, method string, i int, path string, body any, hdr map[string]string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, tf.urls[i]+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := tf.client.Do(req)
	if err != nil {
		t.Fatalf("%s %s%s: %v", method, tf.urls[i], path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// metricAt fetches one numeric counter from node i over HTTP.
func (tf *testFleet) metricAt(t testing.TB, i int, name string) float64 {
	t.Helper()
	status, b := tf.do(t, "GET", i, "/metrics", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics on node %d = %d", i, status)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	raw, ok := m[name]
	if !ok {
		t.Fatalf("metric %q missing on node %d", name, i)
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("metric %q = %s: %v", name, raw, err)
	}
	return f
}

// roles resolves the fleet roles for one solve request: the ring-preferred
// home, the replica, and a node that owns nothing of this digest.
func (tf *testFleet) roles(req api.SolveRequest) (home, replica, non int) {
	key := cache.NewKey([]byte(req.Net), []byte(req.Library), cacheOptions(req.SolveOptions))
	h := fleet.RouteKey(key.Net, key.Library)
	owners := tf.servers[0].fleet.Owners(h)
	home, replica, non = -1, -1, -1
	for i, u := range tf.urls {
		switch {
		case u == owners[0]:
			home = i
		case u == owners[1]:
			replica = i
		default:
			non = i
		}
	}
	return home, replica, non
}

func testSolveRequest(t testing.TB) api.SolveRequest {
	return api.SolveRequest{Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf")}
}

// TestFleetForwardToOwner: a non-owner forwards the solve to its cache
// home, the engine runs only there, the result is near-cached at the
// forwarder and written through to the replica.
func TestFleetForwardToOwner(t *testing.T) {
	tf := startTestFleet(t, 3, nil, nil)
	defer tf.stop()
	req := testSolveRequest(t)
	home, replica, non := tf.roles(req)

	status, b := tf.do(t, "POST", non, "/v1/solve", req, nil)
	if status != http.StatusOK {
		t.Fatalf("forwarded solve = %d: %s", status, b)
	}
	var resp api.SolveResult
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Net != "line" || resp.Cached {
		t.Fatalf("forwarded resp = %+v", resp)
	}
	if got := tf.metricAt(t, non, "fleet_forwards"); got != 1 {
		t.Fatalf("origin fleet_forwards = %v, want 1", got)
	}
	if got := tf.metricAt(t, non, "engine_runs"); got != 0 {
		t.Fatalf("origin engine_runs = %v, want 0 (engine belongs to the home)", got)
	}
	if got := tf.metricAt(t, home, "engine_runs"); got != 1 {
		t.Fatalf("home engine_runs = %v, want 1", got)
	}

	// Near-cache: the same request at the forwarder now hits locally.
	status, b = tf.do(t, "POST", non, "/v1/solve", req, nil)
	if status != http.StatusOK {
		t.Fatalf("repeat solve = %d: %s", status, b)
	}
	var again api.SolveResult
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat at the forwarder was not served from the near-cache")
	}
	if got := tf.metricAt(t, non, "fleet_forwards"); got != 1 {
		t.Fatalf("near-cached repeat forwarded again (fleet_forwards = %v)", got)
	}

	// Write-through: the replica owner receives the result asynchronously;
	// once it lands, the same solve there is a local cache hit.
	deadline := time.Now().Add(5 * time.Second)
	for tf.metricAt(t, replica, "fleet_replicas_stored") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("write-through replica never arrived at the second owner")
		}
		time.Sleep(10 * time.Millisecond)
	}
	status, b = tf.do(t, "POST", replica, "/v1/solve", req, nil)
	if status != http.StatusOK {
		t.Fatalf("solve at replica = %d: %s", status, b)
	}
	var rep api.SolveResult
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Fatal("replica owner missed its replicated cache entry")
	}
	if got := tf.metricAt(t, replica, "engine_runs"); got != 0 {
		t.Fatalf("replica engine_runs = %v, want 0", got)
	}
}

// TestFleetSingleflightCollapse: concurrent identical solves arriving at
// a non-owner collapse — fleet-wide — onto one engine run at the home.
func TestFleetSingleflightCollapse(t *testing.T) {
	tf := startTestFleet(t, 3, nil, nil)
	defer tf.stop()
	req := testSolveRequest(t)
	home, _, non := tf.roles(req)

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, b := tf.do(t, "POST", non, "/v1/solve", req, nil)
			if status != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", status, b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := tf.metricAt(t, home, "engine_runs"); got != 1 {
		t.Fatalf("home engine_runs = %v, want exactly 1 for %d concurrent callers", got, callers)
	}
	if got := tf.metricAt(t, non, "engine_runs"); got != 0 {
		t.Fatalf("origin engine_runs = %v, want 0", got)
	}
}

// TestFleetHopGuard: a request that already hopped once is served locally
// no matter who owns the digest — no forwarding loops.
func TestFleetHopGuard(t *testing.T) {
	tf := startTestFleet(t, 3, nil, nil)
	defer tf.stop()
	req := testSolveRequest(t)
	_, _, non := tf.roles(req)

	status, b := tf.do(t, "POST", non, "/v1/solve", req, map[string]string{
		"X-Bufferkit-Hops":   "1",
		"X-Bufferkit-Origin": "http://elsewhere",
	})
	if status != http.StatusOK {
		t.Fatalf("hopped solve = %d: %s", status, b)
	}
	if got := tf.metricAt(t, non, "fleet_forwards"); got != 0 {
		t.Fatalf("hopped request was re-forwarded (fleet_forwards = %v)", got)
	}
	if got := tf.metricAt(t, non, "engine_runs"); got != 1 {
		t.Fatalf("hopped request did not run locally (engine_runs = %v)", got)
	}
}

// TestFleetRelayedErrorNamesPeer: an authoritative peer verdict (here a
// 400 parse failure) is relayed to the client with the origin peer named
// in the payload.
func TestFleetRelayedErrorNamesPeer(t *testing.T) {
	tf := startTestFleet(t, 3, nil, nil)
	defer tf.stop()
	req := api.SolveRequest{Net: "this is not a netlist", Library: readTestdata(t, "lib8.buf")}
	home, _, non := tf.roles(req)

	status, b := tf.do(t, "POST", non, "/v1/solve", req, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("relayed parse error = %d: %s", status, b)
	}
	var er api.ErrorBody
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Peer != tf.urls[home] {
		t.Fatalf("relayed error names peer %q, want the home %q\nbody: %s", er.Peer, tf.urls[home], b)
	}

	// A locally produced error carries no peer annotation.
	status, b = tf.do(t, "POST", home, "/v1/solve", req, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("local parse error = %d: %s", status, b)
	}
	var local api.ErrorBody
	if err := json.Unmarshal(b, &local); err != nil {
		t.Fatal(err)
	}
	if local.Peer != "" {
		t.Fatalf("local error unexpectedly names a peer: %q", local.Peer)
	}
}

// TestFleetFailoverOnDeadHome: with the home killed, a forwarded solve
// fails over (replica or local fallback) and the client still gets a
// result.
func TestFleetFailoverOnDeadHome(t *testing.T) {
	tf := startTestFleet(t, 3, nil, nil)
	defer tf.stop()
	req := testSolveRequest(t)
	home, _, non := tf.roles(req)
	tf.killNode(home)

	status, b := tf.do(t, "POST", non, "/v1/solve", req, nil)
	if status != http.StatusOK {
		t.Fatalf("solve with dead home = %d: %s", status, b)
	}
	var resp api.SolveResult
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Net != "line" {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestFleetPartitionFallback: a node partitioned away from every peer
// still answers from its own engines, and resumes forwarding after heal.
func TestFleetPartitionFallback(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	part := chaoskit.NewPartition()
	tf := startTestFleet(t, 3, part, nil)
	defer tf.stop()
	req := testSolveRequest(t)
	_, _, non := tf.roles(req)
	part.Isolate(tf.hosts[non], tf.hosts...)

	status, b := tf.do(t, "POST", non, "/v1/solve", req, nil)
	if status != http.StatusOK {
		t.Fatalf("partitioned solve = %d: %s", status, b)
	}
	var resp api.SolveResult
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Net != "line" || resp.Cached {
		t.Fatalf("partitioned resp = %+v", resp)
	}
	if got := tf.metricAt(t, non, "fleet_local_fallbacks"); got < 1 {
		t.Fatalf("fleet_local_fallbacks = %v, want >= 1", got)
	}
	if got := tf.metricAt(t, non, "engine_runs"); got != 1 {
		t.Fatalf("partitioned engine_runs = %v, want 1 (local solve)", got)
	}

	// Heal, wait for the probe loop to resurrect the peers, then confirm a
	// fresh digest forwards again.
	part.HealAll()
	req2 := api.SolveRequest{Net: readTestdata(t, "random12.net"), Library: readTestdata(t, "lib8.buf")}
	_, _, non2 := tf.roles(req2)
	deadline := time.Now().Add(5 * time.Second)
	for tf.metricAt(t, non2, "peer_dead") > 0 || tf.metricAt(t, non2, "peer_suspect") > 0 {
		if time.Now().After(deadline) {
			t.Fatal("peers never resurrected after heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status, b = tf.do(t, "POST", non2, "/v1/solve", req2, nil); status != http.StatusOK {
		t.Fatalf("healed solve = %d: %s", status, b)
	}
	if got := tf.metricAt(t, non2, "fleet_forwards"); got < 1 {
		t.Fatalf("fleet did not resume forwarding after heal (fleet_forwards = %v)", got)
	}
}

// TestFleetEndpointAndReplicaPut covers the two fleet HTTP surfaces: the
// topology endpoint and the peer replication sink.
func TestFleetEndpointAndReplicaPut(t *testing.T) {
	tf := startTestFleet(t, 3, nil, nil)
	defer tf.stop()

	status, b := tf.do(t, "GET", 0, "/v1/fleet", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", status)
	}
	var info struct {
		Enabled  bool               `json:"enabled"`
		Self     string             `json:"self"`
		Replicas int                `json:"replicas"`
		Peers    []fleet.PeerStatus `json:"peers"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || info.Self != tf.urls[0] || info.Replicas != 2 || len(info.Peers) != 3 {
		t.Fatalf("fleet info = %+v", info)
	}

	key := cache.NewKey([]byte("replica-net"), []byte("replica-lib"), "algo=new")
	put := cacheReplica{
		NetSHA:   hex.EncodeToString(key.Net[:]),
		LibSHA:   hex.EncodeToString(key.Library[:]),
		Options:  key.Options,
		Response: &api.SolveResult{Net: "replica-net", Algorithm: "new"},
	}
	status, b = tf.do(t, "PUT", 1, "/internal/v1/cache", put, nil)
	if status != http.StatusOK {
		t.Fatalf("PUT replica = %d: %s", status, b)
	}
	var stored map[string]bool
	if err := json.Unmarshal(b, &stored); err != nil {
		t.Fatal(err)
	}
	if !stored["stored"] {
		t.Fatal("fresh replica was not stored")
	}
	if status, b = tf.do(t, "PUT", 1, "/internal/v1/cache", put, nil); status != http.StatusOK {
		t.Fatalf("repeat PUT replica = %d: %s", status, b)
	} else if json.Unmarshal(b, &stored); stored["stored"] {
		t.Fatal("duplicate replica was stored again")
	}
	put.NetSHA = "zz"
	if status, _ = tf.do(t, "PUT", 1, "/internal/v1/cache", put, nil); status != http.StatusBadRequest {
		t.Fatalf("malformed replica = %d, want 400", status)
	}
}

// TestFleetDisabledSurfaces: a single node reports a disabled fleet and
// rejects replication pushes.
func TestFleetDisabledSurfaces(t *testing.T) {
	h := New(Config{}).Handler()
	rec := get(t, h, "/v1/fleet")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", rec.Code)
	}
	var info struct {
		Enabled bool `json:"enabled"`
	}
	decodeInto(t, rec, &info)
	if info.Enabled {
		t.Fatal("single node claims to be a fleet")
	}
	req := httptest.NewRequest("PUT", "/internal/v1/cache", bytes.NewReader([]byte("{}")))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("PUT /internal/v1/cache on single node = %d, want 404", rec.Code)
	}
}

// postTenant posts a solve as the given tenant through an in-process
// handler.
func postTenant(t testing.TB, h http.Handler, tenant string, extra map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := testSolveRequest(t)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(b))
	r.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		r.Header.Set("X-Bufferkit-Tenant", tenant)
	}
	for k, v := range extra {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// TestTenantQuotas: per-tenant buckets shed independently, unknown
// tenants fall back to per-tenant "*" buckets, probes and forwarded hops
// pass free.
func TestTenantQuotas(t *testing.T) {
	s := New(Config{TenantQuotas: map[string]resilience.QuotaSpec{
		"alice": {Rate: 0.01, Burst: 2},
		"*":     {Rate: 0.01, Burst: 1},
	}})
	h := s.Handler()

	for i := range 2 {
		if rec := postTenant(t, h, "alice", nil); rec.Code != http.StatusOK {
			t.Fatalf("alice request %d = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := postTenant(t, h, "alice", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("alice over-quota request = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("tenant 429 missing Retry-After")
	}

	// bob and carol each get their own "*" bucket: bob exhausting his does
	// not shed carol.
	if rec := postTenant(t, h, "bob", nil); rec.Code != http.StatusOK {
		t.Fatalf("bob request = %d", rec.Code)
	}
	if rec := postTenant(t, h, "bob", nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("bob over-quota request = %d, want 429", rec.Code)
	}
	if rec := postTenant(t, h, "carol", nil); rec.Code != http.StatusOK {
		t.Fatalf("carol request = %d (bob's shed leaked)", rec.Code)
	}

	// Forwarded hops were charged at their ingress node: they pass free
	// even for an exhausted tenant.
	if rec := postTenant(t, h, "alice", map[string]string{"X-Bufferkit-Hops": "1"}); rec.Code != http.StatusOK {
		t.Fatalf("forwarded hop hit the tenant quota: %d", rec.Code)
	}
	// GET endpoints are never charged.
	if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics as over-quota tenant = %d", rec.Code)
	}
	if got := metric(t, h, "tenant_shed_total"); got < 2 {
		t.Fatalf("tenant_shed_total = %d, want >= 2", got)
	}
	if got := metric(t, h, "tenant_allowed"); got < 4 {
		t.Fatalf("tenant_allowed = %d, want >= 4", got)
	}
}

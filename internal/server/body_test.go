package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/fleet"
	"bufferkit/internal/server/cache"
)

// bodySeeds are request bodies on the edges where a hand-written JSON
// reader could part from encoding/json: case-folded and escaped keys
// (U+212A KELVIN SIGN and U+017F LONG S fold onto k and s), repeated
// keys, lists and objects, nulls, surrogate escapes paired and unpaired,
// invalid UTF-8, non-integer and out-of-range numbers, raw values,
// nested unknown values, strings and keys skipped with bad escapes or
// control bytes, bytes after the value, and the empty body.
var bodySeeds = []string{
	``,
	`   `,
	`null`,
	`null x`,
	`nullx`,
	`nul`,
	`[]`,
	`"net"`,
	`{}`,
	`{"net":"net a\ndriver res 1 k 2\n","library":"buffer b res 1 cin 1"}`,
	`{"NET":"a","Library":"b","ALGORITHM":"new","Max_Cost":3,"No_Stats":true,"TimeOut_MS":7}`,
	`{"bac\u212aend":"soa","no_\u017ftats":true,"net\u017f":["a"]}`,
	`{"n\u0065t":"x","\u006eets":["y"]}`,
	`{"net":"a","net":"b","library":"x","library":null}`,
	`{"nets":["a","b","c"],"nets":["x"],"nets":[null,null,null]}`,
	`{"nets":["a"],"nets":null}`,
	`{"nets":["a"],"nets":[]}`,
	`{"nets":[null,"b"]}`,
	`{"net":null,"nets":null,"max_cost":null,"ordered":null,"no_stats":null}`,
	`{"net":"\ud83d\ude00"}`,
	`{"net":"\ud83d"}`,
	`{"net":"\ude00x"}`,
	`{"net":"\ud83d\ud83d\ude00"}`,
	`{"net":"\ud83d\u0041"}`,
	`{"net":"\ud83d\"}`,
	`{"net":"\u00e9\u0000\u2028"}`,
	`{"net":"\"\\\/\b\f\n\r\t"}`,
	"{\"net\":\"a\xffb\xed\xa0\x80c\"}",
	"{\"net\":\"\xff\xff\xff\xff\"}",
	"{\"net\":\"\\n\xff\xff\xff\xff\xff\\n\"}",
	"{\"net\":\"a\tb\"}",
	"{\"net\xff\":\"a\"}",
	`{"max_cost":1e2}`,
	`{"max_cost":1.0}`,
	`{"max_cost":9223372036854775807}`,
	`{"max_cost":9223372036854775808}`,
	`{"max_cost":-9223372036854775808}`,
	`{"max_cost":-0}`,
	`{"timeout_ms":01}`,
	`{"timeout_ms":-}`,
	`{"timeout_ms":"5"}`,
	`{"ordered":1}`,
	`{"ordered":true,"ordered":false}`,
	`{"net":5}`,
	`{"nets":"a"}`,
	`{"nets":[1]}`,
	`{"x":{"y":[1,-2.5e+3,{"z":null}],"w":"\u00e9","v":[true,false,[]]},"net":"n"}`,
	`{"x":[[[[[]]]]],"net":"n"}`,
	`{"x":{"a":1,}}`,
	`{"x":[1,]}`,
	`{"net":"a"} trailing`,
	`{"net":"a"}}`,
	`{"net":"a",}`,
	`{"net" "a"}`,
	`{"net":"a"`,
	`{"net":"a`,
	`{"prune":"transient","backend":"soa"}`,
	`{"seed":null,"seed":7}`,
	`{"seed":7,"seed":null}`,
	`{"sigma":1e400}`,
	`{"sigma":0.1,"target":1e39,"step":123456789.123456789}`,
	`{"sigma":-1e-400,"target":-0,"step":2.5E+2,"step_decay":0.5,"history_step":-1}`,
	`{"seed":1.5}`,
	`{"seed":-9223372036854775809}`,
	`{"samples":3,"robust":true,"process_corners":false,"rounds":2,"capacity":1}`,
	`{"instance":null}`,
	`{"instance":[1,2`,
	`{"instance":tru}`,
	`{"instance":  {"a" : [ 1 , "\ud83d" ] }  ,"library":"x"}`,
	`{"instance":"a\nb","instance":[{"nets":[]}]}`,
	`{"x":"a\qb","net":"n"}`,
	`{"x":{"k\q":1}}`,
	`{"x":"\u12g4"}`,
	`{"x":"a\`,
	"{\"x\":\"a\tb\"}",
	"{\"instance\":{\"a\x01\":1}}",
	`{"instance":["\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud83d"],"x":{"\u006b":"\"}"}}`,
	`{"patches":[{"kind":"sink","vertex":"a","rat":1,"cap":2,"allowed":[1,2,3]}],"patches":[{"res":3,"allowed":[4]},{"ok":true}]}`,
	`{"patches":[{"kind":"sink","rat":1},null],"patches":[null,null,{"rat":null,"ok":false}]}`,
	`{"patches":[{"allowed":[1,2]}],"patches":[{"allowed":null}],"patches":[{"allowed":[]}]}`,
	`{"patches":[{"allowed":[1.5]}]}`,
	`{"patches":[{"ok":1}]}`,
	`{"patches":{}}`,
	`{"patches":[[]]}`,
	`{"response":{"placement":{"a":"b","a":"c"},"stats":{"Positions":3,"arenabytes":4}}}`,
	`{"net_sha":"ab","lib_sha":"cd","options":"algo=new","response":{"net":"n","algorithm":"new","slack":1.5,"buffers":2,"cost":3,"cached":true,"elapsed_ms":0.25}}`,
	`{"response":{"net":"a"},"response":{"slack":2,"frontier":[{"cost":1,"slack":-1,"buffers":1},null]}}`,
	`{"response":{"frontier":[{"cost":1}]},"response":{"frontier":[{"slack":2},{"buffers":3}]}}`,
	`{"response":{"placement":{"a":"b"}},"response":{"placement":{"c":"d"}}}`,
	`{"response":{"placement":{"a":"b"}},"response":{"placement":null}}`,
	`{"response":{"placement":{"a":null,"\u0062":"\ud83d"}}}`,
	`{"response":{"placement":{"a":1}}}`,
	`{"response":{"stats":null,"Stats":{"decisions":1}}}`,
	`{"response":{"Trace":"t","stats":{"x":[1]}}}`,
	`{"response":null}`,
	`{"response":[]}`,
	`{"response":"x"}`,
	`{"error":"e","field":"f","vertex":1,"type":null,"peer":"p","trace":"t"}`,
}

// checkDecode holds decodeJSON to encoding/json's Decoder.Decode on one
// body decoded into a T: both fail, or both give deeply equal values.
func checkDecode[T any](t *testing.T, body []byte) {
	var want, got T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gotErr := decodeJSON(bytes.Clone(body), &got)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("%T body %q: encoding/json error %v, decodeJSON error %v", got, body, wantErr, gotErr)
	case wantErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T body %q:\ndecodeJSON   %+v\nencoding/json %+v", got, body, got, want)
	}
}

// checkDecodeAll runs checkDecode on every type a body decodes into.
func checkDecodeAll(t *testing.T, body []byte) {
	checkDecode[solveRequest](t, body)
	checkDecode[batchRequest](t, body)
	checkDecode[yieldRequest](t, body)
	checkDecode[chipRequest](t, body)
	checkDecode[sessionRequest](t, body)
	checkDecode[cacheReplica](t, body)
	checkDecode[api.ErrorBody](t, body)
}

// fuzzBodies fuzzes check, seeded with bodySeeds.
func fuzzBodies(f *testing.F, check func(*testing.T, []byte)) {
	for _, s := range bodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(check)
}

// FuzzDecodeBody decodes each input into every wrapper both with the
// request reader and with encoding/json.
func FuzzDecodeBody(f *testing.F) { fuzzBodies(f, checkDecodeAll) }

// FuzzDecodeSolveBody and FuzzDecodeBatchBody are FuzzDecodeBody's solve
// and batch halves, kept so their seed tests keep their names.
func FuzzDecodeSolveBody(f *testing.F) { fuzzBodies(f, checkDecode[solveRequest]) }
func FuzzDecodeBatchBody(f *testing.F) { fuzzBodies(f, checkDecode[batchRequest]) }

// TestChipBodyAllocsFlat: a chip body costs the same allocations to
// decode whatever the size of its instance. The instance is a raw value,
// checked and copied whole, so no string or key inside it is built.
func TestChipBodyAllocsFlat(t *testing.T) {
	allocs := func(nets int) float64 {
		body, err := json.Marshal(api.ChipRequest{
			Instance: chipInstanceJSON(t, bufferkit.ChipGenOpts{
				W: 10, H: 10, Nets: nets, Capacity: 2, Contention: 0.7, Seed: 3}),
			Library: libText(t, bufferkit.GenerateLibrary(8)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			var req chipRequest
			if err := decodeJSON(body, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(4), allocs(40); small != large {
		t.Fatalf("a chip body decodes in %.0f allocations at 4 nets and %.0f at 40, want the same", small, large)
	}
}

// TestDecodeDepth: unknown and raw values nest up to encoding/json's
// limit and no deeper, counting the body's own object and the typed
// objects around them.
func TestDecodeDepth(t *testing.T) {
	for _, shell := range [][2]string{
		{`{"x":`, `}`},
		{`{"instance":`, `}`},
		{`{"response":{"stats":{"x":`, `}}}`},
	} {
		for _, depth := range []int{maxDepth - 3, maxDepth - 2, maxDepth - 1, maxDepth} {
			checkDecodeAll(t, []byte(shell[0]+strings.Repeat("[", depth)+strings.Repeat("]", depth)+shell[1]))
		}
	}
}

// TestDecodeEveryField: every field encoding/json writes for a body,
// each set to a value of its own, decodes back through the reader, so no
// field of the shared schema is skipped as an unknown key.
func TestDecodeEveryField(t *testing.T) {
	for _, dst := range []any{&solveRequest{}, &batchRequest{}, &yieldRequest{},
		&chipRequest{}, &sessionRequest{}, &cacheReplica{}, &api.ErrorBody{}} {
		want := reflect.New(reflect.TypeOf(dst).Elem())
		fillValue(t, want.Elem(), new(int))
		body, err := json.Marshal(want.Interface())
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeJSON(body, dst); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := reflect.ValueOf(dst).Interface(); !reflect.DeepEqual(got, want.Interface()) {
			t.Errorf("%s decodes to %+v, want %+v", body, got, want.Interface())
		}
	}
}

// fillValue sets v, and every field, element and pointee it holds, to a
// distinct non-zero value, counting on *n. Fields encoding/json does not
// write stay zero.
func fillValue(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if sf := v.Type().Field(i); sf.Tag.Get("json") != "-" && (sf.IsExported() || sf.Anonymous) {
				fillValue(t, v.Field(i), n)
			}
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), n)
	case reflect.Slice:
		if v.Type() == reflect.TypeFor[json.RawMessage]() {
			v.SetBytes(fmt.Appendf(nil, `{"r":[%d,"s"]}`, *n))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fillValue(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillValue(t, key, n)
			fillValue(t, elem, n)
			v.SetMapIndex(key, elem)
		}
	default:
		t.Fatalf("%s: unexpected kind %s", v.Type(), v.Kind())
	}
}

// stallingBody yields head, then blocks its next Read until release is
// closed, as a client does that states a Content-Length and stops
// sending.
type stallingBody struct {
	head             []byte
	stalled, release chan struct{}
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if len(b.head) > 0 {
		n := copy(p, b.head)
		b.head = b.head[n:]
		return n, nil
	}
	close(b.stalled)
	<-b.release
	return 0, io.ErrUnexpectedEOF
}

// TestReadBodyStalledClient: a body that claims MaxBodyBytes and stalls
// after a few bytes holds at most bodyPrealloc while it waits, not a
// buffer of the claimed size.
func TestReadBodyStalledClient(t *testing.T) {
	s := New(Config{})
	claimed := s.cfg.MaxBodyBytes
	if claimed < 4*bodyPrealloc {
		t.Fatalf("MaxBodyBytes %d: the test wants a default well above bodyPrealloc %d", claimed, bodyPrealloc)
	}
	body := &stallingBody{head: []byte(`{"net":"`), stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest("POST", "/v1/solve", body)
	req.ContentLength = claimed
	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error)
	go func() {
		_, err := s.readBody(httptest.NewRecorder(), req)
		done <- err
	}()
	<-body.stalled
	runtime.ReadMemStats(&during)
	close(body.release)
	if err := <-done; err == nil {
		t.Fatal("a body cut short read without error")
	}
	if held := during.TotalAlloc - before.TotalAlloc; held > 2*bodyPrealloc {
		t.Fatalf("a stalled body claiming %d bytes allocated %d, want at most %d", claimed, held, 2*bodyPrealloc)
	}
}

// TestDecodeRequestBody: on every endpoint that reads a body, a body too
// large is a 413 naming the limit (a complete value before the limit
// included), and a malformed one a 400 naming no field.
func TestDecodeRequestBody(t *testing.T) {
	const limit = 64
	plain := New(Config{MaxBodyBytes: limit}).Handler()
	member := New(Config{MaxBodyBytes: limit, Fleet: fleet.Config{
		Self:          "http://127.0.0.1:1",
		Peers:         []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		ProbeInterval: time.Hour,
	}})
	defer member.Close()
	endpoints := []struct {
		method, path string
		h            http.Handler
	}{
		{"POST", "/v1/solve", plain},
		{"POST", "/v1/batch", plain},
		{"POST", "/v1/yield", plain},
		{"POST", "/v1/chip", plain},
		{"PUT", "/v1/sessions/s1", plain},
		{"PUT", "/internal/v1/cache", member.Handler()},
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"net":"` + strings.Repeat("x", 100) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"net":"x"}` + strings.Repeat(" ", 100), http.StatusRequestEntityTooLarge},
		{`{"net":`, http.StatusBadRequest},
		{`{"max_cost":1.5,"net_sha":1.5}`, http.StatusBadRequest},
	} {
		for _, ep := range endpoints {
			rec := httptest.NewRecorder()
			ep.h.ServeHTTP(rec, httptest.NewRequest(ep.method, ep.path, strings.NewReader(tc.body)))
			var eb api.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.status || eb.Field != "" {
				t.Errorf("%s %s %q: status %d field %q, want %d and no field", ep.method, ep.path, tc.body, rec.Code, eb.Field, tc.status)
			}
			if tc.status == http.StatusRequestEntityTooLarge && !strings.Contains(eb.Error, strconv.Itoa(limit)) {
				t.Errorf("%s %s: 413 body %q does not name the limit", ep.method, ep.path, eb.Error)
			}
		}
	}
}

// TestSolveReplyHoldsNoRequestMemory: no string of a solve reply, which
// the cache keeps, shares memory with the request body or with the
// parse's slab of every vertex name. Either would make each cached reply
// hold a whole request's worth of memory.
func TestSolveReplyHoldsNoRequestMemory(t *testing.T) {
	body, err := json.Marshal(api.SolveRequest{
		Net:          readTestdata(t, "line.net"),
		Library:      readTestdata(t, "lib8.buf"),
		SolveOptions: api.SolveOptions{Algorithm: bufferkit.AlgoNew},
	})
	if err != nil {
		t.Fatal(err)
	}
	var req solveRequest
	if err := decodeJSON(body, &req); err != nil {
		t.Fatal(err)
	}
	net, lib, err := parsePayload(req.Net, req.Library)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := newSolver(req.SolveOptions, lib, bufferkit.WithDriver(net.Driver))
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	res, err := solver.Run(context.Background(), net.Tree)
	if err != nil {
		t.Fatal(err)
	}
	resp := buildResponse(net, lib, solver.Algorithm(), res, 0)
	if resp.Net != "line" || len(resp.Placement) == 0 {
		t.Fatalf("reply net %q placement %v: want net line and a placement", resp.Net, resp.Placement)
	}

	type span struct{ lo, hi uintptr }
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	bodyAt := uintptr(unsafe.Pointer(&body[0]))
	bodySpan := span{bodyAt, bodyAt + uintptr(len(body))}
	slab := span{addr(net.Name), addr(net.Name) + uintptr(len(net.Name))}
	for _, v := range net.Tree.Verts[1:] { // the source's name is no parsed text
		if v.Name != "" {
			slab.lo, slab.hi = min(slab.lo, addr(v.Name)), max(slab.hi, addr(v.Name)+uintptr(len(v.Name)))
		}
	}
	strs := []string{resp.Net, resp.Algorithm}
	for k := range resp.Placement {
		strs = append(strs, k)
	}
	for _, s := range strs {
		for _, sp := range []struct {
			what string
			span
		}{{"request body", bodySpan}, {"parsed name slab", slab}} {
			if p := addr(s); p >= sp.lo && p < sp.hi {
				t.Errorf("reply string %q shares the %s", s, sp.what)
			}
		}
	}
}

// TestPayloadKeyMatchesNewKey: the copy-free key helper builds the key
// cache.NewKey builds from the same texts.
func TestPayloadKeyMatchesNewKey(t *testing.T) {
	net, lib := readTestdata(t, "random12.net"), readTestdata(t, "lib8.buf")
	if got, want := payloadKey(net, digest(lib), "algo=new"), cache.NewKey([]byte(net), []byte(lib), "algo=new"); got != want {
		t.Fatalf("payloadKey %+v, cache.NewKey %+v", got, want)
	}
}

// FuzzPlacementJSON: api.Placement encodes to the bytes encoding/json
// writes for the same map[string]string, from MarshalJSON itself (which
// encoding/json would re-escape for HTML), through json.Marshal and
// through writeJSON.
func FuzzPlacementJSON(f *testing.F) {
	f.Add("n1", "buf8")
	f.Add("<a&b>", "\u2028\u2029")
	f.Add("\b\f\n\r\t\x00\x1f\x7f", "\"\\/")
	f.Add("\xff\xed\xa0\x80", "\ufffd")
	f.Add("", "é😀")
	f.Fuzz(func(t *testing.T, a, b string) {
		m := map[string]string{a: b, b: a, a + b: "", "v" + a: b + "src"}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := api.Placement(m).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, want) {
			t.Fatalf("MarshalJSON: Placement %s, map %s", direct, want)
		}
		got, err := json.Marshal(api.Placement(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal: Placement %s, map %s", got, want)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, api.Placement(m))
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) {
			t.Fatalf("writeJSON: Placement %s, map %s", rec.Body.Bytes(), enc.Bytes())
		}
	})
}

// TestPlacementNil: a nil Placement encodes as null, as a nil map does.
func TestPlacementNil(t *testing.T) {
	got, err := json.Marshal(api.SolveResult{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte(`"placement":null`)) {
		t.Fatalf("nil placement encodes as %s", got)
	}
}

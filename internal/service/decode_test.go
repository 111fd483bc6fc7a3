package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"disttrack/internal/obs"
)

// compactBody is the canonical compact encoding of recs: what encoding/json
// makes of the request type, and — for the plain ASCII tenant names used here
// — the bytes bench/'s hand-rolled encodeBody sends.
func compactBody(t testing.TB, recs []Record) []byte {
	t.Helper()
	body, err := json.Marshal(ingestRequest{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sortedKeyBody encodes recs the way the package's own HTTP tests do:
// through map[string]any, so keys come sorted (site, tenant, value). Other
// clients in this repository encode a struct, in field order.
func sortedKeyBody(t testing.TB, recs []Record) []byte {
	t.Helper()
	ms := make([]map[string]any, len(recs))
	for i, r := range recs {
		ms[i] = map[string]any{"tenant": r.Tenant, "site": r.Site, "value": r.Value}
	}
	body, err := json.Marshal(map[string]any{"records": ms})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// streamRecs is n records of one tenant spread over k sites.
func streamRecs(tenant string, n, k int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Tenant: tenant, Site: i % k, Value: uint64(i) * 2654435761 % 100000}
	}
	return recs
}

// mixedRecs is n records whose tenant changes every one to three records,
// and the number of tenant runs in them. Names are longer than one byte, so
// each run's string is an allocation of its own.
func mixedRecs(n int) (recs []Record, runs int) {
	for len(recs) < n {
		tenant := fmt.Sprintf("tenant-%d", runs%5)
		for i := 0; i <= runs%3 && len(recs) < n; i++ {
			recs = append(recs, Record{Tenant: tenant, Site: len(recs) % 4, Value: uint64(len(recs)) * 2654435761 % 100000})
		}
		runs++
	}
	return recs, runs
}

// spacedBody encodes recs with the separators of Python's json.dumps, ", "
// and ": ", which the compact layout does not match.
func spacedBody(recs []Record) []byte {
	var b strings.Builder
	b.WriteString(`{"records": [`)
	for i, r := range recs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"tenant": %q, "site": %d, "value": %d}`, r.Tenant, r.Site, r.Value)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// decodeCases are bodies on both sides of the scanner's line. scan says which
// decoder must take the body: the ones real clients send have to stay on the
// scanner, or the speed-up is gone with nothing failing.
var decodeCases = []struct {
	name, body string
	scan       bool
}{
	{"compact", `{"records":[{"tenant":"clicks","site":0,"value":7},{"tenant":"clicks","site":1,"value":9}]}`, true},
	{"sorted keys", `{"records":[{"site":3,"tenant":"a","value":1},{"site":0,"tenant":"b","value":2}]}`, true},
	{"pretty", "{\n  \"records\": [\n    {\n      \"tenant\": \"a\",\n      \"site\": 1,\n      \"value\": 2\n    }\n  ]\n}\n", true},
	{"whitespace everywhere", " \t\r\n{ \"records\" : [ { \"value\" : 5 , \"tenant\" : \"a\" } , { } ] } ", true},
	{"empty records", `{"records":[]}`, true},
	{"empty record", `{"records":[{}]}`, true},
	{"missing keys", `{"records":[{"value":3},{"tenant":"a"},{"site":2}]}`, true},
	{"empty tenant", `{"records":[{"tenant":"","site":0,"value":1}]}`, true},
	{"tenant runs", `{"records":[{"tenant":"a"},{"tenant":"a"},{"tenant":"b"},{"tenant":"a"}]}`, true},
	{"negative site", `{"records":[{"tenant":"a","site":-3,"value":1}]}`, true},
	{"site -0", `{"records":[{"tenant":"a","site":-0,"value":1}]}`, true},
	{"value max", `{"records":[{"tenant":"a","site":0,"value":18446744073709551615}]}`, true},
	{"trailing garbage", `{"records":[{"tenant":"a","site":0,"value":1}]}garbage`, true},
	{"trailing value", `{"records":[]} {"records":[{"tenant":"a"}]}`, true},
	{"DEL in tenant", "{\"records\":[{\"tenant\":\"a\x7fb\"}]}", true},
	{"names sharing the run's prefix", `{"records":[{"tenant":"a","site":0,"value":1},{"tenant":"ab","site":1,"value":2},{"tenant":"a","site":2,"value":3},{"tenant":"ab","site":3,"value":4},{"tenant":"abc","site":0,"value":5},{"tenant":"ab","site":1,"value":6}]}`, true},
	{"value 7 and 8 digits", `{"records":[{"tenant":"a","site":0,"value":1234567},{"tenant":"a","site":0,"value":12345678}]}`, true},
	{"value 18 digits", `{"records":[{"tenant":"a","site":0,"value":999999999999999999}]}`, true},
	{"value 19 digits", `{"records":[{"tenant":"a","site":0,"value":9999999999999999999}]}`, true},
	{"value 20 digits", `{"records":[{"tenant":"a","site":0,"value":10000000000000000000}]}`, true},
	{"value zero", `{"records":[{"tenant":"a","site":0,"value":0}]}`, true},
	{"site MaxInt", `{"records":[{"tenant":"a","site":` + strconv.Itoa(math.MaxInt) + `,"value":1}]}`, true},
	{"site MinInt+1", `{"records":[{"tenant":"a","site":` + strconv.Itoa(-math.MaxInt) + `,"value":1}]}`, true},
	{"site -1", `{"records":[{"tenant":"a","site":-1,"value":1}]}`, true},
	{"number at the end of the body", `{"records":[{"value":12}]}`, true},

	{"value max+1", `{"records":[{"tenant":"a","site":0,"value":18446744073709551616}]}`, false},
	{"value 20 nines", `{"records":[{"value":99999999999999999999}]}`, false},
	{"value -0", `{"records":[{"tenant":"a","site":0,"value":-0}]}`, false},
	{"value negative", `{"records":[{"value":-1}]}`, false},
	{"site beyond int64", `{"records":[{"site":9223372036854775808}]}`, false},
	{"site min int64", `{"records":[{"site":-9223372036854775808}]}`, false},
	{"site minus space", `{"records":[{"site":- 1}]}`, false},
	{"escape in tenant", `{"records":[{"tenant":"a\"b","site":0,"value":1}]}`, false},
	{"unicode escape", `{"records":[{"tenant":"\u0061","site":0,"value":1}]}`, false},
	{"escaped key", `{"records":[{"ten\u0061nt":"a"}]}`, false},
	{"non-ASCII tenant", `{"records":[{"tenant":"café","site":0,"value":1}]}`, false},
	{"invalid UTF-8 tenant", "{\"records\":[{\"tenant\":\"a\xffb\"}]}", false},
	{"control byte in tenant", "{\"records\":[{\"tenant\":\"a\nb\"}]}", false},
	{"NUL byte", "{\"records\":[\x00]}", false},
	{"duplicate key", `{"records":[{"tenant":"a","tenant":"b"}]}`, false},
	{"duplicate records", `{"records":[],"records":[{"tenant":"a"}]}`, false},
	{"unknown key", `{"records":[{"tenant":"a","extra":1}]}`, false},
	{"unknown top-level key", `{"records":[],"extra":1}`, false},
	{"key case", `{"records":[{"Tenant":"a","SITE":1,"Value":2}]}`, false},
	{"top-level key case", `{"Records":[{"tenant":"a"}]}`, false},
	{"null records", `{"records":null}`, false},
	{"null record", `{"records":[null]}`, false},
	{"null field", `{"records":[{"tenant":null,"site":null,"value":null}]}`, false},
	{"fraction", `{"records":[{"value":1.0}]}`, false},
	{"exponent", `{"records":[{"value":1e3}]}`, false},
	{"site exponent", `{"records":[{"site":1E2}]}`, false},
	{"leading zero", `{"records":[{"value":01}]}`, false},
	{"leading zero site", `{"records":[{"site":-01}]}`, false},
	{"string number", `{"records":[{"value":"7"}]}`, false},
	{"number tenant", `{"records":[{"tenant":7}]}`, false},
	{"trailing comma", `{"records":[{"tenant":"a"},]}`, false},
	{"comma in record", `{"records":[{"tenant":"a",}]}`, false},
	{"empty object", `{}`, false},
	{"empty body", ``, false},
	{"array body", `[{"tenant":"a"}]`, false},
	{"truncated", `{"records":[{"tenant":"a","site":0,"val`, false},
	{"truncated number", `{"records":[{"value":12`, false},
	{"unclosed", `{"records":[{"tenant":"a"}]`, false},
	{"bad literal", `{"records":[{"value":7x}]}`, false},
	{"escaped name after its prefix's run", `{"records":[{"tenant":"a","site":0,"value":1},{"tenant":"ab","site":0,"value":1},{"tenant":"a\"","site":0,"value":1},{"tenant":"ab","site":0,"value":1}]}`, false},
	{"key tenants", `{"records":[{"tenants":"a","site":0,"value":1}]}`, false},
	{"key Tenant", `{"records":[{"Tenant":"a","site":0,"value":1}]}`, false},
	{"key site with a space", `{"records":[{"tenant":"a","site ":0,"value":1}]}`, false},
	{"duplicate value in canonical order", `{"records":[{"tenant":"a","site":1,"value":2,"value":3}]}`, false},
	{"site MaxInt+1", `{"records":[{"tenant":"a","site":` + strconv.FormatUint(math.MaxInt+1, 10) + `,"value":1}]}`, false},
	{"site 01", `{"records":[{"tenant":"a","site":01,"value":1}]}`, false},
	{"site minus alone", `{"records":[{"tenant":"a","site":-,"value":1}]}`, false},
	{"value 00", `{"records":[{"tenant":"a","site":0,"value":00}]}`, false},
	{"colon after digits", `{"records":[{"tenant":"a","site":0,"value":12:}]}`, false},
	{"slash after digits", `{"records":[{"tenant":"a","site":0,"value":12/}]}`, false},
	{"high bytes after digits", "{\"records\":[{\"tenant\":\"a\",\"site\":0,\"value\":1\xff\xfa\xff\xff\xff\xff\xff}]}", false},
	{"truncated in records", `{"rec`, false},
	{"truncated in key tenant", `{"records":[{"ten`, false},
	{"truncated in name", `{"records":[{"tenant":"cl`, false},
	{"truncated in the run's name", `{"records":[{"tenant":"ab","site":0,"value":1},{"tenant":"ab`, false},
	{"truncated in the run's name, short", `{"records":[{"tenant":"ab","site":0,"value":1},{"tenant":"a`, false},
	{"truncated in key site", `{"records":[{"tenant":"a","si`, false},
	{"truncated after minus", `{"records":[{"tenant":"a","site":-`, false},
	{"truncated in key value", `{"records":[{"tenant":"a","site":1,"valu`, false},
	{"truncated before value", `{"records":[{"tenant":"a","site":1,"value":`, false},
	{"truncated in value", `{"records":[{"tenant":"a","site":1,"value":1234`, false},
	{"truncated before brace", `{"records":[{"tenant":"a","site":1,"value":1234567890`, false},
}

// checkAgainstJSON decodes body with the service's decoder and with the
// reference — encoding/json as the handlers used it before the scanner — and
// fails unless they agree on success, on the error string and on every
// record. It reports whether the scanner took the body.
func checkAgainstJSON(t *testing.T, body []byte) (scanned bool) {
	t.Helper()
	var want ingestRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)

	m := newDecodeCounters(obs.NewRegistry())
	b := ingestBody{buf: body}
	err := b.decode(m)
	if m.scan.Value()+m.json.Value() != 1 {
		t.Fatalf("decode counted scan=%d json=%d for one body", m.scan.Value(), m.json.Value())
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("decode error %v, encoding/json error %v\nbody %q", err, wantErr, body)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("decode error %q, encoding/json error %q\nbody %q", err, wantErr, body)
	case err == nil && !slices.Equal(b.recs, want.Records):
		t.Fatalf("decode gave %+v, encoding/json gave %+v\nbody %q", b.recs, want.Records, body)
	}
	return m.scan.Value() == 1
}

// TestDecodeIngestCases pins, for each case, agreement with encoding/json and
// which decoder ran — through disttrack_ingest_decode_total, the counter an
// operator would read it from.
func TestDecodeIngestCases(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkAgainstJSON(t, []byte(c.body)); got != c.scan {
				t.Fatalf("scanner took the body = %v, want %v\nbody %q", got, c.scan, c.body)
			}
		})
	}
	// The encodings clients actually produce, at benchmark size.
	recs := streamRecs("clicks", 512, 4)
	mixed, _ := mixedRecs(512)
	for name, body := range map[string][]byte{
		"compact":     compactBody(t, recs),
		"sorted keys": sortedKeyBody(t, recs),
		"mixed":       compactBody(t, mixed),
		"spaced":      spacedBody(mixed),
	} {
		if !checkAgainstJSON(t, body) {
			t.Fatalf("the %s encoding of a 512-record batch fell back to encoding/json", name)
		}
	}
	// Every cut of a compact body, wherever it falls in a literal, a name or
	// a number, goes to encoding/json.
	body := compactBody(t, []Record{{"clicks", 3, 12345678}, {"clicks", -1, 7}, {"click", 0, 0}})
	for n := range body {
		if checkAgainstJSON(t, body[:n]) {
			t.Fatalf("the scanner took a body cut at %d bytes: %q", n, body[:n])
		}
	}
}

// FuzzDecodeIngest is the differential check at the HTTP trust boundary: for
// arbitrary bytes the decoder answers exactly as encoding/json alone would.
func FuzzDecodeIngest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	recs := []Record{{"clicks", 0, 7}, {"clicks", 3, 1 << 40}, {"latency", 1, 0}}
	f.Add(compactBody(f, recs))
	f.Add(sortedKeyBody(f, recs))
	pretty, err := json.MarshalIndent(ingestRequest{Records: recs}, "", "\t")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pretty)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body)
	})
}

// TestDecodeIngestSharesTenantStrings pins what makes the scanner cheap: one
// string per run of records naming the same tenant, none per record.
func TestDecodeIngestSharesTenantStrings(t *testing.T) {
	mixed, runs := mixedRecs(512)
	for _, c := range []struct {
		name string
		body []byte
		runs int
	}{
		{"single tenant", compactBody(t, streamRecs("clicks", 512, 4)), 1},
		{"tenant changing every 1-3 records", compactBody(t, mixed), runs},
		{"same, spaced", spacedBody(mixed), runs},
	} {
		b := ingestBody{buf: c.body}
		m := newDecodeCounters(obs.NewRegistry())
		if err := b.decode(m); err != nil { // sizes b.recs
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { b.decode(m) }); allocs != float64(c.runs) {
			t.Errorf("%s: decoding allocates %v times, want %d (one name per tenant run)", c.name, allocs, c.runs)
		}
		if m.json.Value() != 0 {
			t.Errorf("%s: the body fell back to encoding/json", c.name)
		}
	}
}

// TestIngestBodyReuse sends two different bodies through ONE ingestBody, the
// way the pool hands it from request to request: the second decode must hold
// exactly its own records, the first request's records — a copy of the slice,
// sharing its tenant strings — must survive the buffer being overwritten, and
// a released body holds no record.
func TestIngestBodyReuse(t *testing.T) {
	first := streamRecs("first-tenant", 300, 4)
	second := []Record{{"b", 1, 2}, {"b", 0, 3}, {"other", 2, 4}}
	m := newDecodeCounters(obs.NewRegistry())
	var b ingestBody
	body := compactBody(t, first)
	if err := b.read(bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatal(err)
	}
	if err := b.decode(m); err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(b.recs)

	body = sortedKeyBody(t, second)
	if err := b.read(bytes.NewReader(body), -1); err != nil {
		t.Fatal(err)
	}
	if err := b.decode(m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.recs, second) {
		t.Fatalf("second body decoded to %+v, want %+v", b.recs, second)
	}
	if !slices.Equal(kept, first) {
		t.Fatal("the first request's records changed when the buffer was reused")
	}
	if m.scan.Value() != 2 {
		t.Fatalf("scanner took %d of 2 bodies", m.scan.Value())
	}
	recs := b.recs
	b.release() // b belongs to the pool from here
	if slices.ContainsFunc(recs, func(r Record) bool { return r != Record{} }) {
		t.Fatal("a released body still holds records")
	}
}

// TestIngestHTTPDecodeBothEdges drives both HTTP edges with concurrent
// producers whose bodies differ in size, tenant and encoding, so pooled
// buffers are handed between unlike requests (run under -race): every
// tenant's total must come out exact, and both registries must show every
// well-formed body on the scanner and only the escaped one on encoding/json.
func TestIngestHTTPDecodeBothEdges(t *testing.T) {
	coord, ri := startCoord(t)
	node := startSiteNode(t, "edge-decode", ri.Addr())
	edges := []struct {
		name    string
		handler http.Handler
		reg     *obs.Registry
	}{
		{"server", coord.Handler(), coord.Metrics()},
		{"site node", node.Handler(), node.Metrics()},
	}
	const producers, rounds = 4, 25
	sizes := [producers]int{512, 3, 64, 200}
	post := func(h http.Handler, body []byte) (int, ingestResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		var resp ingestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("bad response %q: %v", rec.Body.Bytes(), err)
		}
		return rec.Code, resp
	}
	for e, edge := range edges {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			name := fmt.Sprintf("e%dp%d", e, p)
			mustCreate(t, coord, TenantConfig{Name: name, Kind: KindHH, K: 4, Eps: 0.1})
			recs := streamRecs(name, sizes[p], 4)
			body := compactBody(t, recs)
			if p%2 == 1 {
				body = sortedKeyBody(t, recs)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if code, resp := post(edge.handler, body); code != http.StatusOK || resp.Accepted != len(recs) {
						t.Errorf("%s: tenant %s: status %d, accepted %d of %d", edge.name, name, code, resp.Accepted, len(recs))
						return
					}
				}
			}()
		}
		wg.Wait()
		// One body only encoding/json reads: the escape decodes to the first
		// producer's tenant.
		escaped := fmt.Sprintf(`{"records":[{"tenant":"\u0065%dp0","site":0,"value":1}]}`, e)
		if code, resp := post(edge.handler, []byte(escaped)); code != http.StatusOK || resp.Accepted != 1 {
			t.Fatalf("%s: escaped body: status %d, accepted %d", edge.name, code, resp.Accepted)
		}
		if code, _ := post(edge.handler, []byte(`{"records":[`)); code != http.StatusBadRequest {
			t.Fatalf("%s: truncated body: status %d, want 400", edge.name, code)
		}
		var text strings.Builder
		if err := edge.reg.Expose(&text); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`disttrack_ingest_decode_total{path="scan"} %d`, producers*rounds),
			`disttrack_ingest_decode_total{path="json"} 2`,
		} {
			if !strings.Contains(text.String(), want+"\n") {
				t.Errorf("%s: /metrics lacks %q", edge.name, want)
			}
		}
	}
	if err := node.Flush(); err != nil {
		t.Fatal(err)
	}
	coord.Flush()
	for e := range edges {
		for p := 0; p < producers; p++ {
			name := fmt.Sprintf("e%dp%d", e, p)
			want := int64(sizes[p] * rounds)
			if p == 0 {
				want++ // the escaped body
			}
			if got := coord.Registry().Get(name).Stats().Processed; got != want {
				t.Errorf("tenant %s processed %d records, want %d", name, got, want)
			}
		}
	}
}

// endless yields spaces — JSON whitespace, so only the size can be wrong with
// the body — without the test holding the oversized body in memory.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		n += copy(p[n:], "                                                                ")
	}
	return n, nil
}

// TestIngestBodyTooLarge pins the bound on a buffered body on both edges: a
// declared length past it is refused unread, a streamed body is cut off at
// it, and both answer 413 in the error envelope.
func TestIngestBodyTooLarge(t *testing.T) {
	coord, ri := startCoord(t)
	node := startSiteNode(t, "edge-413", ri.Addr())
	for _, c := range []struct {
		name     string
		h        http.Handler
		declared bool
	}{
		{"server, declared", coord.Handler(), true},
		{"site node, declared", node.Handler(), true},
		{"server, streamed", coord.Handler(), false}, // one 64 MiB read is enough: the edges share readIngest
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", io.LimitReader(endless{}, maxIngestBody+1))
		if c.declared {
			req.ContentLength = maxIngestBody + 1
		}
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, req)
		var e errBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: bad response %q: %v", c.name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || e.Code != codeTooLarge ||
			e.Error != "bad ingest body: http: request body too large" {
			t.Fatalf("%s: status %d, body %+v", c.name, rec.Code, e)
		}
	}
}

// BenchmarkDecodeIngest is the bit-rot guard on the HTTP edge's largest cost:
// 512-record bodies through the decoder as the handlers call it, and through
// encoding/json as they did before (json). scan is the bench-shaped body, one
// tenant in json.Marshal's layout; mixed changes tenant every 1-3 records in
// the same layout; spaced is mixed with Python's separators, which only the
// general token loop reads. The scan case reports at most 4 allocs/op.
func BenchmarkDecodeIngest(b *testing.B) {
	body := compactBody(b, streamRecs("clicks", 512, 4))
	mixed, _ := mixedRecs(512)
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"scan", body},
		{"mixed", compactBody(b, mixed)},
		{"spaced", spacedBody(mixed)},
	} {
		b.Run(c.name, func(b *testing.B) { benchDecode(b, c.body) })
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req ingestRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || len(req.Records) != 512 {
				b.Fatalf("decoded %d records, err %v", len(req.Records), err)
			}
		}
	})
}

// benchDecode reads and decodes a 512-record body through a pooled
// ingestBody, as readIngest does.
func benchDecode(b *testing.B, body []byte) {
	m := newDecodeCounters(obs.NewRegistry())
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	// The first pass sizes the pooled buffer and record slice; it runs
	// untimed so that `-benchtime 1x` (make bench-smoke) reports the steady
	// state too.
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		ib := ingestBodies.Get().(*ingestBody)
		if err := ib.read(bytes.NewReader(body), int64(len(body))); err != nil {
			b.Fatal(err)
		}
		if err := ib.decode(m); err != nil || len(ib.recs) != 512 {
			b.Fatalf("decoded %d records, err %v", len(ib.recs), err)
		}
		ib.release()
	}
	if m.json.Value() != 0 {
		b.Fatal("the body fell back to encoding/json")
	}
}

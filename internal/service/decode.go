package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"

	"disttrack/internal/obs"
)

const (
	// maxIngestBody bounds a POST /v1/ingest body, which is buffered whole
	// before it is decoded; a larger one is answered 413.
	maxIngestBody = 64 << 20
	// maxPooledBody is the largest body buffer that goes back to the pool, so
	// one outsized request does not pin its memory for the life of the
	// process; maxPooledRecs is the same bound for the record slice (a record
	// in the canonical encoding is at least as long as a Record is wide).
	maxPooledBody = 1 << 20
	maxPooledRecs = maxPooledBody / 32
)

// ingestBody is one decoded POST /v1/ingest body and the pooled memory behind
// it. recs is valid until release.
type ingestBody struct {
	buf  []byte
	recs []Record
}

var ingestBodies = sync.Pool{New: func() any { return new(ingestBody) }}

// release returns the body's memory to the pool; recs must not be used after.
// The records are cleared so that a pooled slice pins no tenant name.
func (b *ingestBody) release() {
	if cap(b.buf) > maxPooledBody || cap(b.recs) > maxPooledRecs {
		return
	}
	clear(b.recs)
	ingestBodies.Put(b)
}

// decodeCounters is disttrack_ingest_decode_total: which decoder took each
// POST /v1/ingest body.
type decodeCounters struct {
	scan, json *obs.Counter
}

func newDecodeCounters(reg *obs.Registry) decodeCounters {
	v := reg.NewCounterVec("disttrack_ingest_decode_total",
		"POST /v1/ingest bodies by decoder: scan = the byte scanner took it, json = it fell back to encoding/json (malformed bodies included).",
		"path")
	return decodeCounters{scan: v.With("scan"), json: v.With("json")}
}

// readIngest reads and decodes the body of a POST /v1/ingest request for both
// HTTP edges. On failure it has written the error response (400, or 413 past
// maxIngestBody) and returns nil; otherwise the caller releases the body once
// it is done with the records.
func readIngest(w http.ResponseWriter, r *http.Request, m decodeCounters) *ingestBody {
	b := ingestBodies.Get().(*ingestBody)
	var err error
	if r.ContentLength > maxIngestBody {
		err = &http.MaxBytesError{Limit: maxIngestBody} // refused unread
	} else if err = b.read(http.MaxBytesReader(w, r.Body, maxIngestBody), r.ContentLength); err == nil {
		err = b.decode(m)
	}
	if err != nil {
		b.release()
		status, code := http.StatusBadRequest, codeInvalid
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status, code = http.StatusRequestEntityTooLarge, codeTooLarge
		}
		writeErr(w, status, code, "bad ingest body: "+err.Error())
		return nil
	}
	return b
}

// read fills b.buf with the whole body, sized up front from the declared
// length (as far as a buffer is pooled: a header alone should not make the
// server allocate more than that).
func (b *ingestBody) read(body io.Reader, length int64) error {
	b.buf = b.buf[:0]
	if length = min(length, maxPooledBody-1); int64(cap(b.buf)) <= length {
		b.buf = make([]byte, 0, length+1) // +1: room for the read that reports EOF
	}
	for {
		if len(b.buf) == cap(b.buf) {
			b.buf = append(b.buf, 0)[:len(b.buf)]
		}
		n, err := body.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decode fills b.recs from b.buf: by the scanner when it recognises the body,
// and otherwise by encoding/json over the same bytes, which is the reference
// for what is accepted and for every error string.
func (b *ingestBody) decode(m decodeCounters) error {
	if recs, ok := scanIngest(b.buf, b.recs[:0]); ok {
		m.scan.Inc()
		b.recs = recs
		return nil
	}
	m.json.Inc()
	var req ingestRequest
	err := json.NewDecoder(bytes.NewReader(b.buf)).Decode(&req)
	b.recs = req.Records
	return err
}

// scanIngest decodes the one body shape nearly every client sends,
//
//	{"records":[{"tenant":"…","site":N,"value":N},…]}
//
// with a record's keys in any order (a missing one leaves its zero value) and
// JSON whitespace anywhere, appending to recs. A run of records naming the
// same tenant shares one string, so a single-tenant body costs one allocation.
// Bytes after the closing brace are ignored, as encoding/json's Decoder
// ignores them.
//
// It is deliberately strict: it reports false for anything it does not
// positively recognise — an escape or a non-ASCII byte in a string, an unknown,
// repeated or differently-cased key, null, a fraction or exponent, a leading
// zero, a site beyond int or a value beyond uint64, truncation — and the caller
// then hands the same bytes to encoding/json. So the scanner never decides that a
// body is malformed, and never has to agree with encoding/json on anything
// but the shape above (FuzzDecodeIngest holds it to that).
func scanIngest(body []byte, recs []Record) ([]Record, bool) {
	s := scanner{b: body}
	if !s.next('{') {
		return nil, false
	}
	if key, ok := s.str(); !ok || string(key) != "records" {
		return nil, false
	}
	if !s.next(':') || !s.next('[') {
		return nil, false
	}
	if s.ws() == ']' {
		s.i++
		return recs, s.next('}')
	}
	var tenant string // the current run's name
	for {
		if !s.next('{') {
			return nil, false
		}
		var rec Record
		if s.ws() == '}' {
			s.i++
		} else if !s.fields(&rec, &tenant) {
			return nil, false
		}
		recs = append(recs, rec)
		if s.next(']') {
			return recs, s.next('}')
		}
		if !s.next(',') {
			return nil, false
		}
	}
}

// scanner is a cursor over a request body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace and returns the byte it stops at, 0 at the end of
// the input (a literal NUL matches nothing the scanner looks for either).
func (s *scanner) ws() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// next consumes c if it is the next byte after any whitespace.
func (s *scanner) next(c byte) bool {
	if s.ws() != c {
		return false
	}
	s.i++
	return true
}

// str consumes a string made only of unescaped printable ASCII and returns
// the bytes between its quotes.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	rest := s.b[s.i:]
	for n, c := range rest {
		if c == '"' {
			s.i += n + 1
			return rest[:n], true
		}
		if c-0x20 >= 0x60 || c == '\\' { // a control byte, non-ASCII, or an escape
			break
		}
	}
	return nil, false
}

// uint consumes a run of digits that is a JSON integer no larger than max.
// What may follow a number is the caller's check: it looks for ',' or '}'
// next, so a fraction or an exponent is not recognised.
func (s *scanner) uint(max uint64) (v uint64, ok bool) {
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		d := uint64(s.b[s.i] - '0')
		if d > 9 {
			break
		}
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := s.i - start
	return v, n == 1 || (n > 1 && s.b[start] != '0')
}

// fields consumes one record's members and closing brace, the cursor being
// past the opening one. tenant is the previous record's name: rec shares it
// when it names the same tenant, and replaces it otherwise.
func (s *scanner) fields(rec *Record, tenant *string) bool {
	const (
		sawTenant = 1 << iota
		sawSite
		sawValue
	)
	seen := 0
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		var saw int
		switch string(key) {
		case "tenant":
			saw = sawTenant
			name, ok := s.str()
			if !ok {
				return false
			}
			if string(name) != *tenant {
				*tenant = string(name)
			}
			rec.Tenant = *tenant
		case "site":
			saw = sawSite
			neg := s.next('-')
			v, ok := s.uint(math.MaxInt)
			if !ok {
				return false
			}
			if rec.Site = int(v); neg {
				rec.Site = -rec.Site
			}
		case "value":
			saw = sawValue
			s.ws()
			if rec.Value, ok = s.uint(math.MaxUint64); !ok {
				return false
			}
		default:
			return false
		}
		if seen&saw != 0 {
			return false
		}
		seen |= saw
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

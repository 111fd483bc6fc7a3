package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/bits"
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
// ignores them. Each record is first tried in the exact layout above, which is
// json.Marshal's, in one pass over its bytes (compact); any other layout of a
// record goes through the general token loop (fields).
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
	s.ws()
	if !s.lit(`"records"`) || !s.next(':') || !s.next('[') {
		return nil, false
	}
	if s.ws() == ']' {
		s.i++
		return recs, s.next('}')
	}
	var run string // the current run's tenant name
	for {
		rec, ok := s.compact(&run)
		if !ok {
			if !s.next('{') {
				return nil, false
			}
			if s.ws() == '}' {
				s.i++
			} else if !s.fields(&rec, &run) {
				return nil, false
			}
		}
		recs = append(recs, rec)
		switch s.ws() {
		case ',':
			s.i++
		case ']':
			s.i++
			return recs, s.next('}')
		default:
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
		if c := s.b[s.i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
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

// lit consumes l if the input continues with exactly it.
func (s *scanner) lit(l string) bool {
	if !hasPrefix(s.b[s.i:], l) {
		return false
	}
	s.i += len(l)
	return true
}

// compact consumes one record in json.Marshal's layout of a Record,
// {"tenant":"…","site":N,"value":N} with no whitespace and numbers of fewer
// than eight digits, the cursor being at its opening brace. On any other
// bytes it consumes nothing and reports false, and the record is the general
// loop's. It keeps its place in a local slice rather than the cursor, calls
// nothing for a name that continues the run, and cuts the literals into
// pieces of at most 8 bytes, which the compiler compares as one word each.
func (s *scanner) compact(run *string) (rec Record, ok bool) {
	b := s.b[s.i:]
	if !hasPrefix(b, `{"tenant`) || !hasPrefix(b[8:], `":`) {
		return rec, false
	}
	b = b[10:]
	n := runName(b, *run)
	if n == 0 {
		n = newName(b, run)
	}
	if n == 0 || !hasPrefix(b[n:], `,"site":`) {
		return rec, false
	}
	b = b[n+8:]
	neg := hasPrefix(b, "-")
	if neg {
		b = b[1:]
	}
	if len(b) < 8 {
		return rec, false
	}
	site, n := shortNumber(binary.LittleEndian.Uint64(b))
	if n == 0 || !hasPrefix(b[n:], `,"value"`) || !hasPrefix(b[n+8:], `:`) {
		return rec, false
	}
	if rec.Site = int(site); neg {
		rec.Site = -rec.Site
	}
	if b = b[n+9:]; len(b) < 8 {
		return rec, false
	}
	if rec.Value, n = shortNumber(binary.LittleEndian.Uint64(b)); n == 0 || !hasPrefix(b[n:], `}`) {
		return rec, false
	}
	s.i = len(s.b) - len(b) + n + 1
	rec.Tenant = *run
	return rec, true
}

// fields consumes one record's members and closing brace, the cursor being
// past the opening one. run is the previous record's name: rec shares it
// when it names the same tenant, and replaces it otherwise.
func (s *scanner) fields(rec *Record, run *string) bool {
	const (
		sawTenant = 1 << iota
		sawSite
		sawValue
	)
	seen := 0
	for {
		s.ws()
		var saw int
		switch {
		case s.lit(`"tenant"`):
			saw = sawTenant
		case s.lit(`"site"`):
			saw = sawSite
		case s.lit(`"value"`):
			saw = sawValue
		}
		if saw == 0 || seen&saw != 0 || !s.next(':') {
			return false
		}
		seen |= saw
		s.ws()
		var n int
		switch rest := s.b[s.i:]; saw {
		case sawTenant:
			if n = runName(rest, *run); n == 0 {
				n = newName(rest, run)
			}
			rec.Tenant = *run
		case sawSite:
			rec.Site, n = site(rest)
		default:
			rec.Value, n = number(rest, math.MaxUint64)
		}
		if n == 0 {
			return false
		}
		s.i += n
		switch s.ws() {
		case '}':
			s.i++
			return true
		case ',':
			s.i++
		default:
			return false
		}
	}
}

// The parsers below read the input from the cursor on, b (shortNumber its
// first eight bytes as one word), and return how many bytes they recognise,
// 0 when the input does not start with what they want. What may follow is
// the caller's check: it looks for ',' or '}' after a number, so a fraction
// or an exponent is not recognised.

// hasPrefix reports whether b starts with l.
func hasPrefix(b []byte, l string) bool {
	return len(b) >= len(l) && string(b[:len(l)]) == l
}

// runName returns the length, quotes included, of the string b starts with
// if it spells run, and 0 otherwise. A run of records naming one tenant
// thus shares one string, and is compared before any per-byte scan.
func runName(b []byte, run string) int {
	if n := len(run) + 1; len(b) > n && b[0] == '"' && b[n] == '"' && string(b[1:n]) == run {
		return n + 1
	}
	return 0
}

// newName parses a string made only of unescaped printable ASCII into a new
// *run, and returns its length with the quotes.
func newName(b []byte, run *string) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for n, c := range b[1:] {
		if c == '"' {
			*run = string(b[1 : n+1])
			return n + 2
		}
		if c-0x20 >= 0x60 || c == '\\' { // a control byte, non-ASCII, or an escape
			return 0
		}
	}
	return 0
}

// site parses a JSON integer that fits an int.
func site(b []byte) (int, int) {
	if !hasPrefix(b, "-") {
		v, n := number(b, math.MaxInt)
		return int(v), n
	}
	if v, n := number(b[1:], math.MaxInt); n > 0 {
		return -int(v), n + 1
	}
	return 0, 0
}

// number parses a JSON integer no larger than max, which is at least
// math.MaxInt32.
func number(b []byte, max uint64) (uint64, int) {
	if len(b) >= 8 {
		if v, n := shortNumber(binary.LittleEndian.Uint64(b)); n > 0 {
			return v, n
		}
	}
	return longNumber(b, max)
}

// shortNumber parses the number of fewer than eight digits that x, eight
// input bytes read little-endian, starts with, without a branch per digit.
// Such a number fits any max. It returns 0 for a longer number, a leading
// zero or no digit at all.
func shortNumber(x uint64) (v uint64, n int) {
	// A byte is a digit when its high nibble is 3 and adding 6 leaves it 3.
	// Only a non-digit byte carries into the next one, which is not counted.
	const hi, three = 0xf0f0f0f0f0f0f0f0, 0x3030303030303030
	n = bits.TrailingZeros64((x&hi^three)|((x+0x0606060606060606)&hi^three)) / 8
	if uint(n-1) >= 7 || n > 1 && x&0xff == '0' {
		return 0, 0
	}
	// Shift the digits to the top, so the bytes below read as leading
	// zeros, then combine neighbouring lanes: pairs, quads, all eight.
	x = (x & 0x0f0f0f0f0f0f0f0f) << (64 - 8*n)
	x = (x * (10<<8 + 1) >> 8) & 0x00ff00ff00ff00ff
	x = (x * (100<<16 + 1) >> 16) & 0x0000ffff0000ffff
	return x * (10000<<32 + 1) >> 32, n
}

// longNumber is number digit by digit, for the end of the body and for
// eight digits or more. Eighteen digits cannot overflow a uint64, so only a
// longer run is checked as it goes.
func longNumber(b []byte, max uint64) (v uint64, n int) {
	for ; n < len(b); n++ {
		d := uint64(b[n] - '0')
		if d > 9 {
			break
		}
		if n >= 18 && v > (max-d)/10 {
			return 0, 0
		}
		v = v*10 + d
	}
	if v > max || n > 1 && b[0] == '0' {
		return 0, 0
	}
	return v, n
}

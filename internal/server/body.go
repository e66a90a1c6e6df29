package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"bufferkit/internal/api"
)

// The request reader. Every bufferkitd request body (solve, batch, yield,
// chip, session PUT and the fleet's cache replica) is read once, into one
// buffer, and decoded in one pass into its wrapper struct: each JSON string
// is unescaped straight into a buffer of its own, so a .net text costs one
// read and one unescape between the socket and the tree, and no decoded
// value holds the body. The reader decodes the field types decodable
// accepts, plus any value under an unknown key, which is skipped, with the
// outcome encoding/json's Decoder.Decode has on the same wrapper:
//
//   - a key matches a field exactly or under bytes.EqualFold, after
//     unescaping; a repeated key overwrites the earlier value, and a
//     repeated object, list or pointer decodes into what the earlier left;
//   - null leaves a string, number, bool or struct alone, sets a pointer,
//     slice or map to nil, and is the raw value null in a RawMessage;
//   - invalid UTF-8 and unpaired surrogate escapes decode to U+FFFD;
//   - an int takes no fraction, exponent or out-of-range value, and a
//     float is strconv.ParseFloat of the literal, so 1e400 is an error;
//   - a RawMessage is a copy of its value's span, syntax-checked;
//   - an unknown key's value is skipped but must still be valid JSON,
//     nested at most maxDepth deep;
//   - bytes after the first value are read but not decoded.
//
// Anything else is a 400 naming no field, and a body over MaxBodyBytes is
// a 413 even when a complete value ends before the limit. FuzzDecodeBody
// holds the reader to encoding/json on every wrapper.

// fieldTable maps the JSON keys of a struct type to the index paths of
// its fields.
type fieldTable []bodyField

type bodyField struct {
	name  string
	index []int
}

// bodyTables holds the field table of every struct type a body decodes
// into, read off the json tags at start-up, so the keys are declared once,
// in internal/api, legacyOptions and cacheReplica, and a field the reader
// cannot decode panics before the server serves. api.ErrorBody is a
// peer's error reply (callPeerSolve).
var bodyTables = map[reflect.Type]fieldTable{}

var rawMessageType = reflect.TypeFor[json.RawMessage]()

func init() {
	for _, t := range []reflect.Type{
		reflect.TypeFor[solveRequest](), reflect.TypeFor[batchRequest](),
		reflect.TypeFor[yieldRequest](), reflect.TypeFor[chipRequest](),
		reflect.TypeFor[sessionRequest](), reflect.TypeFor[cacheReplica](),
		reflect.TypeFor[api.ErrorBody](),
	} {
		addFieldTable(t)
	}
}

// addFieldTable adds to bodyTables the fields of struct type t, as
// encoding/json names them (by tag, else by field name, with the fields
// of untagged embedded structs promoted), and the tables of the struct
// types they hold. It panics on a field type the reader does not decode
// or on two names equal under case folding, which encoding/json would
// resolve by rules the reader does not implement.
func addFieldTable(t reflect.Type) {
	if _, ok := bodyTables[t]; ok {
		return
	}
	var fields fieldTable
	var walk func(t reflect.Type, index []int)
	walk = func(t reflect.Type, index []int) {
		for i := range t.NumField() {
			sf := t.Field(i)
			name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			path := append(index[:len(index):len(index)], i)
			switch {
			case name == "-" || !sf.IsExported() && !sf.Anonymous:
				continue
			case sf.Anonymous && name == "" && sf.Type.Kind() == reflect.Struct:
				walk(sf.Type, path)
				continue
			case name == "":
				name = sf.Name
			}
			if !decodable(sf.Type) {
				panic(fmt.Sprintf("server: request field %s %s has a type the body reader does not decode", sf.Name, sf.Type))
			}
			for _, f := range fields {
				if strings.EqualFold(f.name, name) {
					panic(fmt.Sprintf("server: request fields %q and %q fold to one key", f.name, name))
				}
			}
			fields = append(fields, bodyField{name, path})
		}
	}
	walk(t, nil)
	bodyTables[t] = fields
}

// decodable reports whether the reader decodes type t, adding the field
// table of every struct type t holds.
func decodable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64:
		return true
	case reflect.Pointer:
		return decodable(t.Elem())
	case reflect.Slice:
		k := t.Elem().Kind()
		return t == rawMessageType || (k == reflect.String || k == reflect.Int || k == reflect.Struct) && decodable(t.Elem())
	case reflect.Map:
		return t.Key().Kind() == reflect.String && t.Elem().Kind() == reflect.String
	case reflect.Struct:
		addFieldTable(t)
		return true
	}
	return false
}

// field returns the field key names, or nil. No two names fold together,
// so the first match under folding is also the exact match encoding/json
// would prefer.
func (fields fieldTable) field(key string) *bodyField {
	for i := range fields {
		if strings.EqualFold(fields[i].name, key) {
			return &fields[i]
		}
	}
	return nil
}

// decodeRequest reads a request body and decodes it into dst, a pointer
// to a wrapper struct, then validates dst when it has a validate method,
// before any cache lookup.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	if err := decodeJSON(body, dst); err != nil {
		return badRequestf("", "malformed JSON body: %v", err)
	}
	if v, ok := dst.(interface{ validate() error }); ok {
		return v.validate()
	}
	return nil
}

// bodyPrealloc caps what readBody allocates before a body byte has
// arrived. It holds a 513 KB industrial body in one allocation, and a
// client that states a Content-Length of MaxBodyBytes and then stalls
// holds no more than it; past it, the buffer grows as bytes arrive.
const bodyPrealloc = 1 << 20

// readBody reads the whole request body through http.MaxBytesReader into
// one buffer sized from Content-Length, up to bodyPrealloc: a body that
// states its length and fits costs one allocation. A body over
// MaxBodyBytes is a 413, even when a complete JSON value ends before the
// limit.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limit := s.cfg.MaxBodyBytes
	size := r.ContentLength
	if size < 0 {
		size = 64 << 10
	}
	// +1 leaves room for the read that reports EOF.
	buf := make([]byte, 0, min(size, limit, bodyPrealloc)+1)
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, &httpError{status: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
			}
			return nil, badRequestf("", "malformed JSON body: %v", err)
		}
	}
}

// maxDepth is how deeply encoding/json lets arrays and objects nest,
// counting the body's own object.
const maxDepth = 10000

// decodeJSON decodes the first JSON value of buf into dst, a pointer to a
// struct type in bodyTables. Like Decoder.Decode into a struct, it takes
// an object or null (which stores nothing) and ignores whatever follows
// the value.
func decodeJSON(buf []byte, dst any) error {
	v := reflect.ValueOf(dst).Elem()
	if _, ok := bodyTables[v.Type()]; !ok {
		panic(fmt.Sprintf("server: %s has no body field table", v.Type()))
	}
	d := bodyReader{buf: buf}
	d.space()
	switch d.peek() {
	case '{':
		return d.object(v, 0)
	case 'n':
		return d.literal("null")
	case 0:
		if d.pos == len(buf) {
			return errors.New("empty body")
		}
	}
	return d.errorf("want a JSON object")
}

// bodyReader is the cursor of one decode over a body buffer.
type bodyReader struct {
	buf []byte
	pos int
}

// errorf reports a decode error at the cursor.
func (d *bodyReader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek returns the byte at the cursor, or 0 at the end.
func (d *bodyReader) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// space skips JSON white space.
func (d *bodyReader) space() {
	for d.pos < len(d.buf) && isSpace(d.buf[d.pos]) {
		d.pos++
	}
}

// expect consumes the byte c after any white space.
func (d *bodyReader) expect(c byte) error {
	d.space()
	if d.peek() != c {
		return d.unexpected(fmt.Sprintf("want %q", c))
	}
	d.pos++
	return nil
}

// unexpected reports the byte at the cursor, or the end, as not what the
// grammar wants there.
func (d *bodyReader) unexpected(want string) error {
	if d.pos >= len(d.buf) {
		return d.errorf("unexpected end of body, %s", want)
	}
	return d.errorf("invalid character %q, %s", d.buf[d.pos], want)
}

// object decodes the object at the cursor into v, a struct (each key's
// value goes to the field it names, or is skipped) or a map; depth counts
// the arrays and objects that enclose the object.
func (d *bodyReader) object(v reflect.Value, depth int) error {
	if v.Kind() == reflect.Map {
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		k, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		return d.members(true, func(key string) error {
			elem.SetZero()
			if err := d.value(elem, key, depth+1); err != nil {
				return err
			}
			k.SetString(key)
			v.SetMapIndex(k, elem)
			return nil
		})
	}
	fields := bodyTables[v.Type()]
	return d.members(true, func(key string) error {
		var field reflect.Value
		if f := fields.field(key); f != nil {
			field = v.FieldByIndex(f.index)
		}
		return d.value(field, key, depth+1)
	})
}

// members walks the array or object at the cursor. For each element it
// puts the cursor on the value and calls elem with the element's key, or
// "" in an array or when keys is false (the keys are then only checked).
func (d *bodyReader) members(keys bool, elem func(key string) error) error {
	open, end := d.buf[d.pos], byte(']')
	if open == '{' {
		end = '}'
	}
	d.pos++
	d.space()
	if d.peek() == end {
		d.pos++
		return nil
	}
	for {
		var key string
		if open == '{' {
			d.space()
			if d.peek() != '"' {
				return d.unexpected("want an object key")
			}
			var err error
			if keys {
				key, err = d.str()
			} else {
				err = d.skipStr()
			}
			if err != nil {
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
		}
		d.space()
		if err := elem(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case end:
			d.pos++
			return nil
		default:
			return d.unexpected(fmt.Sprintf("want ',' or %q", end))
		}
	}
}

// value decodes the value at the cursor into v, the field or element under
// key, or skips it when v is the zero Value; depth counts the arrays and
// objects that enclose the value.
func (d *bodyReader) value(v reflect.Value, key string, depth int) error {
	switch {
	case !v.IsValid():
		return d.skip(depth)
	case v.Type() == rawMessageType:
		start := d.pos
		err := d.skip(depth)
		v.SetBytes(bytes.Clone(d.buf[start:d.pos]))
		return err
	case d.peek() == 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			v.SetZero()
		}
		return nil
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		return d.value(v.Elem(), key, depth)
	case reflect.String:
		if d.peek() != '"' {
			return d.mismatch(key, "a string")
		}
		s, err := d.str()
		v.SetString(s)
		return err
	case reflect.Bool:
		switch d.peek() {
		case 't':
			v.SetBool(true)
			return d.literal("true")
		case 'f':
			v.SetBool(false)
			return d.literal("false")
		}
		return d.mismatch(key, "true or false")
	case reflect.Int, reflect.Int64, reflect.Float64:
		return d.numberInto(v, key)
	case reflect.Slice:
		if d.peek() != '[' {
			return d.mismatch(key, "a list")
		}
		return d.list(v, key, depth)
	}
	if d.peek() != '{' { // a struct or a map
		return d.mismatch(key, "an object")
	}
	return d.object(v, depth)
}

// mismatch reports a value of the wrong JSON type for field key.
func (d *bodyReader) mismatch(key, want string) error {
	return d.errorf("field %q wants %s", key, want)
}

// list decodes the array at the cursor into slice v with encoding/json's
// slice semantics: elements decode into v's existing backing array,
// growing it as append does, so an element of a repeated list decodes
// into what the earlier list left in its slot (a null element keeps it),
// and an empty array is an empty, non-nil slice.
func (d *bodyReader) list(v reflect.Value, key string, depth int) error {
	n := 0
	err := d.members(false, func(string) error {
		if n == v.Cap() {
			v.Grow(1)
		}
		if n == v.Len() {
			v.SetLen(n + 1)
		}
		n++
		return d.value(v.Index(n-1), key, depth+1)
	})
	if n == 0 {
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	}
	v.SetLen(n)
	return err
}

// numberInto decodes the number at the cursor into v, an int, int64 or
// float64, as encoding/json does: an integer takes no fraction, exponent
// or value out of v's range, and a float is strconv.ParseFloat of the
// literal, out of range beyond the largest float64.
func (d *bodyReader) numberInto(v reflect.Value, key string) error {
	c := d.peek()
	if c != '-' && (c < '0' || c > '9') {
		return d.mismatch(key, "a number")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	if v.Kind() == reflect.Float64 {
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return d.mismatch(key, "a number in range, got "+string(lit))
		}
		v.SetFloat(f)
		return nil
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || v.OverflowInt(n) {
		return d.mismatch(key, "an integer in range, got "+string(lit))
	}
	v.SetInt(n)
	return nil
}

// number consumes a JSON number and returns its text:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *bodyReader) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		return nil, d.unexpected("want a digit")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.unexpected("want a digit after '.'")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.unexpected("want an exponent digit")
		}
	}
	return d.buf[start:d.pos], nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *bodyReader) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// literal consumes the keyword word (true, false or null).
func (d *bodyReader) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.unexpected("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// skip checks and consumes any JSON value; depth counts the arrays and
// objects that enclose it.
func (d *bodyReader) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		return d.skipStr()
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '[' || c == '{':
		if depth >= maxDepth {
			return d.errorf("exceeded max depth")
		}
		return d.members(false, func(string) error { return d.skip(depth + 1) })
	}
	return d.unexpected("want a value")
}

// str decodes the string whose opening quote is at the cursor into a
// buffer of its own, sized from the span to the next quote. A string with
// no escape and no byte to check is one copy; any other goes through scan.
func (d *bodyReader) str() (string, error) {
	buf := d.buf
	r := d.pos + 1
	q := indexFrom(buf, r, '"') // the next quote: the end, unless escaped
	if q >= 0 && bytes.IndexByte(buf[r:q], '\\') < 0 && plainASCII(buf[r:q]) {
		d.pos = q + 1
		return string(buf[r:q]), nil
	}
	return d.scan(q, true)
}

// skipStr checks and consumes the string whose opening quote is at the
// cursor by str's rules, to the same errors, without building it: skip
// passes over strings and keys this way and allocates nothing.
func (d *bodyReader) skipStr() error {
	_, err := d.scan(indexFrom(d.buf, d.pos+1, '"'), false)
	return err
}

// scan consumes the string whose opening quote is at the cursor and
// returns its decoded text, or only checks it when build is false; q is
// the index of the first quote after the opening one, or -1. It jumps
// from one backslash or quote to the next and takes the runs between
// them whole.
func (d *bodyReader) scan(q int, build bool) (string, error) {
	buf := d.buf
	r := d.pos + 1
	var out strings.Builder
	if build {
		out.Grow(max(q-r, 0))
	}
	for {
		if q < 0 {
			d.pos = len(buf)
			return "", d.errorf("unterminated string")
		}
		end := q
		if i := bytes.IndexByte(buf[r:q], '\\'); i >= 0 {
			end = r + i
		}
		if !plainASCII(buf[r:end]) {
			if err := d.runes(&out, r, end, build); err != nil {
				return "", err
			}
		} else if build {
			out.Write(buf[r:end])
		}
		r = end
		if r == q {
			break
		}
		rr, next, err := d.escape(r)
		if err != nil {
			return "", err
		}
		switch {
		case !build:
		case rr < utf8.RuneSelf: // WriteByte inlines, WriteRune does not
			out.WriteByte(byte(rr))
		default:
			out.WriteRune(rr)
		}
		if r = next; r > q { // the escape was \" and took the quote
			q = indexFrom(buf, r, '"')
		}
	}
	d.pos = q + 1
	return out.String(), nil
}

// runes copies buf[r:end], a run without quotes or backslashes that holds
// a control byte or a non-ASCII byte, onto out (or only checks it, when
// build is false): a control byte is an error, and each byte of invalid
// UTF-8 becomes U+FFFD.
func (d *bodyReader) runes(out *strings.Builder, r, end int, build bool) error {
	buf := d.buf
	for r < end {
		c := buf[r]
		switch {
		case c < ' ':
			d.pos = r
			return d.errorf("control character %q in string", c)
		case !build || c < utf8.RuneSelf:
			if build {
				out.WriteByte(c)
			}
			r++
			continue
		}
		rr, size := utf8.DecodeRune(buf[r:end])
		if rr == utf8.RuneError && size == 1 {
			out.WriteRune(rr)
		} else {
			out.Write(buf[r : r+size])
		}
		r += size
	}
	return nil
}

// escape decodes the escape sequence at buf[r] and returns its rune and
// the read position after it. A high surrogate followed by a low one
// decodes as their pair; any other surrogate escape decodes to U+FFFD.
func (d *bodyReader) escape(r int) (rune, int, error) {
	buf := d.buf
	if r+1 >= len(buf) {
		d.pos = len(buf)
		return 0, 0, d.errorf("unterminated string")
	}
	switch c := buf[r+1]; c {
	case '"', '\\', '/':
		return rune(c), r + 2, nil
	case 'b':
		return '\b', r + 2, nil
	case 'f':
		return '\f', r + 2, nil
	case 'n':
		return '\n', r + 2, nil
	case 'r':
		return '\r', r + 2, nil
	case 't':
		return '\t', r + 2, nil
	case 'u':
		rr := hex4(buf[r:])
		if rr < 0 {
			d.pos = r
			return 0, 0, d.errorf("invalid unicode escape")
		}
		r += 6
		if utf16.IsSurrogate(rr) {
			if pair := utf16.DecodeRune(rr, hex4(buf[r:])); pair != utf8.RuneError {
				return pair, r + 6, nil
			}
			rr = utf8.RuneError
		}
		return rr, r, nil
	}
	d.pos = r
	return 0, 0, d.errorf("invalid escape %q", buf[r:r+2])
}

// hex4 decodes the escape \uXXXX at the front of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// indexFrom returns the index of the first c in buf at or after from, or -1.
func indexFrom(buf []byte, from int, c byte) int {
	if i := bytes.IndexByte(buf[from:], c); i >= 0 {
		return from + i
	}
	return -1
}

// plainASCII reports whether every byte of s is printable ASCII, in
// [0x20, 0x80): nothing to reject and no rune to check. It tests eight
// bytes at a time; a byte below 0x20 sets its high bit in x-0x20…20
// (the first such byte is never masked by a borrow), a byte from 0x80
// has it in x.
func plainASCII(s []byte) bool {
	for len(s) >= 8 {
		x := binary.LittleEndian.Uint64(s)
		if (x|(x-0x2020202020202020))&0x8080808080808080 != 0 {
			return false
		}
		s = s[8:]
	}
	for _, c := range s {
		if c < ' ' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// textBytes views the bytes of s without copying them. They must only be
// read: a string's memory is immutable.
func textBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

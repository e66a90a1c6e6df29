package api

import (
	"slices"
	"unicode/utf8"
)

// Placement maps a vertex name to the name of the buffer type placed
// there: "src" for the source, the file name of a named vertex, "v<i>"
// for an unnamed one. It is a map, so literals, range and delete work on
// it as on a map[string]string, but it encodes without reflection:
// MarshalJSON writes the bytes encoding/json writes for the same
// map[string]string, keys sorted by byte order and every string escaped
// the same way, in two allocations where reflection spends two per entry.
type Placement map[string]string

// MarshalJSON writes p as a JSON object with sorted keys, or null for a
// nil map.
func (p Placement) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	keys := make([]string, 0, len(p))
	size := 2
	for k, v := range p {
		keys = append(keys, k)
		size += len(k) + len(v) + 6 // two pairs of quotes, ':' and ','
	}
	slices.Sort(keys)
	out := make([]byte, 0, size)
	out = append(out, '{')
	for i, k := range keys {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendString(out, k)
		out = append(out, ':')
		out = appendString(out, p[k])
	}
	return append(out, '}'), nil
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped when it
// escapes HTML, as its Marshal and Encoder do by default: printable ASCII
// except '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on: the short escapes \" \\ \b \f \n \r \t, \u00XX
// for the other control bytes and for <, > and &, \ufffd for each byte of
// invalid UTF-8, and \u2028 and \u2029 for the line and paragraph
// separators.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Package canonjson renders values as the repository's canonical JSON:
// byte for byte what encoding/json's Encoder writes after
// SetIndent("", "  ") — two-space indent, HTML-safe escaping, a trailing
// newline. The daemon serves these bytes and caches them, and the CLIs'
// -json output prints them.
//
// The Encoder re-indents json.Marshal's output with its validating
// scanner, one state transition per byte. Marshal's output needs no
// validating: it is valid, and compact, with no whitespace outside string
// literals (Marshal compacts what MarshalJSON methods return). So Encode
// re-indents it in a pass that tracks only string literals, which it copies
// whole, and the nesting depth.
package canonjson

import (
	"bytes"
	"encoding/json"
)

// Encode renders v as canonical JSON. It fails exactly when json.Marshal
// does, with Marshal's error, which is the error Encoder.Encode returns.
// The result is sized exactly: callers keep it for the life of a cache
// entry.
func Encode(v any) ([]byte, error) {
	src, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out := indent(make([]byte, 0, indentedLen(src)), src)
	return append(out, '\n'), nil
}

// indent appends compact, valid JSON src to dst indented as
// Encoder.SetIndent("", "  ") indents it: a newline and one indent per
// depth after each opening bracket and comma and before each closing
// bracket, a space after each colon, and empty objects and arrays left as
// {} and [].
func indent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			depth++
			dst = newline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(newline(dst, depth), c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// indentedLen is the length of indent's output for src plus the trailing
// newline Encode appends.
func indentedLen(src []byte) int {
	n, depth := len(src)+1, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			i = stringEnd(src, i) - 1
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++
				continue
			}
			depth++
			n += 1 + 2*depth
		case '}', ']':
			depth--
			n += 1 + 2*depth
		case ',':
			n += 1 + 2*depth
		case ':':
			n++
		}
	}
	return n
}

// newline appends a newline and depth indents.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// stringEnd returns the index just past the string literal that opens at
// src[i]. Marshal escapes every quote inside a literal, so the literal ends
// at the first quote after an even run of backslashes.
func stringEnd(src []byte, i int) int {
	j := i + 1
	for {
		k := bytes.IndexByte(src[j:], '"')
		if k < 0 {
			return len(src)
		}
		j += k
		b := j
		for b > i+1 && src[b-1] == '\\' {
			b--
		}
		if (j-b)%2 == 0 {
			return j + 1
		}
		j++
	}
}

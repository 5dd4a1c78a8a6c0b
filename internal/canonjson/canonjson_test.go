package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// reference is what Encode must reproduce: encoding/json's Encoder with a
// two-space indent.
func reference(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// check fails unless Encode and reference agree on v: equal bytes, or
// equal error text, and an exactly sized result.
func check(t *testing.T, v any) {
	t.Helper()
	got, gotErr := Encode(v)
	want, wantErr := reference(v)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%#v: error %v, want %v", v, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%#v:\ngot  %q\nwant %q", v, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%#v: result has length %d but capacity %d", v, len(got), cap(got))
	}
}

// TestEncodeMatchesEncoder covers the shapes the indenter handles apart:
// empty and nested containers, quotes and backslash runs inside strings,
// HTML-escaped text, top-level scalars, a MarshalJSON method's output
// (which Marshal compacts), and the errors of values JSON cannot carry.
func TestEncodeMatchesEncoder(t *testing.T) {
	type inner struct {
		A []int          `json:"a"`
		M map[string]any `json:"m"`
	}
	for _, v := range []any{
		nil, true, 0, -1.5e300, "", `a"b\c\\"d\\`, "<tag> & \u2028",
		[]int{}, map[string]int{}, []any{[]any{}, map[string]any{}, []any{[]int{1}}},
		map[string]any{"z": 1, "a": []string{"x", "}", "{[,:]"}, "m": map[string]any{}},
		inner{A: []int{1, 2}, M: map[string]any{"k": inner{}}},
		json.RawMessage(` { "a" : [ 1 , 2 ] , "b" : "x y" } `),
		math.NaN(), math.Inf(-1), map[string]float64{"x": math.Inf(1)}, make(chan int),
	} {
		check(t, v)
	}
}

// FuzzCanonicalJSON compares Encode with the Encoder, byte for byte, over
// arbitrary JSON values: each valid input as written (json.RawMessage,
// which keeps its numbers' spelling) and decoded into Go values.
func FuzzCanonicalJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `null`, `"\\\""`, `-0.0e-0`, `[{},[],{"":[]}]`,
		`{"a":"}\\","b":[1,{"c":"\u003c\u2028"}],"":{"x":[[]]}}`,
		`[true,false,null,1e400,"\ud800"]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		check(t, json.RawMessage(data))
		var v any
		if err := json.Unmarshal(data, &v); err == nil {
			check(t, v)
		}
	})
}

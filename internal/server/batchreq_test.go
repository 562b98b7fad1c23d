package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// malformedPairBodies are /v1/batch bodies whose pairs array is not a
// list of [s, t] integer pairs, each with the index of the first bad
// pair. Through encoding/json's own slice decoding into a reused
// [][2]int, the first three decoded without error.
var malformedPairBodies = []struct {
	name, body string
	pair       int
}{
	{"null", `{"pairs":[null]}`, 0},
	{"one member", `{"pairs":[[5]]}`, 0},
	{"three members", `{"pairs":[[1,2,3]]}`, 0},
	{"fraction", `{"pairs":[[1.5,2]]}`, 0},
	{"exponent", `{"pairs":[[1e2,2]]}`, 0},
	{"string", `{"pairs":[["1",2]]}`, 0},
	{"overflow", `{"pairs":[[9223372036854775808,0]]}`, 0},
	{"second pair", `{"pairs":[[0,1],[2]]}`, 1},
	{"empty pair", `{"pairs":[[0,1],[3,4],[]]}`, 2},
	{"object", `{"pairs":[{"s":0,"t":1}]}`, 0},
}

// validPairBodies decode to the pairs of canonicalPairs (or to none):
// whitespace anywhere, case-insensitive key, unknown keys, null and
// empty arrays.
var validPairBodies = []struct {
	name, body string
	empty      bool
}{
	{"canonical", `{"pairs":[[0,63],[63,0],[7,42]]}`, false},
	{"whitespace", " {\n\t\"pairs\" : [ [ 0 ,63 ] ,\r\n[63, 0],[\t7,\n42 ] ] } \n", false},
	{"upper-case key", `{"PAIRS":[[0,63],[63,0],[7,42]]}`, false},
	{"unknown keys", `{"x":[null,1.5],"pairs":[[0,63],[63,0],[7,42]],"y":{"pairs":1}}`, false},
	{"null pairs", `{"pairs":null}`, true},
	{"empty pairs", `{"pairs":[]}`, true},
	{"no pairs", `{}`, true},
}

var canonicalPairs = PairList{{0, 63}, {63, 0}, {7, 42}}

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestBatchRejectsMalformedPairs: every pair that is not exactly two
// integers is a 400 naming the pair, in every response format, and a
// pair a pooled request left behind can never be routed again.
func TestBatchRejectsMalformedPairs(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 3})
	for _, format := range []string{"json", "wire", "wire2"} {
		url := ts.URL + "/v1/batch?format=" + format
		for _, tc := range malformedPairBodies {
			code, body := postBody(t, url, tc.body)
			want := "pair " + strconv.Itoa(tc.pair)
			if code != http.StatusBadRequest || !strings.Contains(string(body), want) {
				t.Errorf("%s %s: status %d %q, want 400 naming %q", format, tc.name, code, body, want)
			}
		}
	}

	// The stale-pair sequence: a 2-pair batch leaves its pairs in the
	// pooled scratch; a following [null] must not route pair 0 of it.
	for i := 0; i < 4; i++ {
		if code, body := postBody(t, ts.URL+"/v1/batch", `{"pairs":[[7,9],[11,13]]}`); code != http.StatusOK {
			t.Fatalf("2-pair batch: status %d %s", code, body)
		}
		if code, body := postBody(t, ts.URL+"/v1/batch", `{"pairs":[null]}`); code != http.StatusBadRequest {
			t.Fatalf("[null] after a 2-pair batch: status %d %s, want 400", code, body)
		}
	}

	// Valid spellings keep working and route exactly the canonical
	// request's pairs.
	blob, _ := json.Marshal(BatchRequest{Pairs: canonicalPairs})
	for _, format := range []string{"json", "wire2"} {
		url := ts.URL + "/v1/batch?format=" + format
		_, want := postBody(t, url, string(blob))
		_, none := postBody(t, url, `{"pairs":[]}`)
		if format == "json" && string(none) != "{\"paths\":null}\n" {
			t.Errorf("empty batch after a warm request: %q, want the cold server's {\"paths\":null}", none)
		}
		for _, tc := range validPairBodies {
			code, body := postBody(t, url, tc.body)
			if code != http.StatusOK {
				t.Errorf("%s %s: status %d %s", format, tc.name, code, body)
				continue
			}
			exp := want
			if tc.empty {
				exp = none
			}
			if !bytes.Equal(body, exp) {
				t.Errorf("%s %s: response differs from the canonical body's", format, tc.name)
			}
		}
	}
}

func TestPairListUnmarshal(t *testing.T) {
	minInt, maxInt := strconv.Itoa(math.MinInt), strconv.Itoa(math.MaxInt)
	good := map[string]PairList{
		`[]`:                                {},
		`null`:                              {},
		`[[0,1]]`:                           {{0, 1}},
		`[[-0,-5],[12,3456789]]`:            {{0, -5}, {12, 3456789}},
		`[[` + minInt + `,` + maxInt + `]]`: {{math.MinInt, math.MaxInt}},
	}
	for in, want := range good {
		pl := PairList{{-1, -1}, {-1, -1}, {-1, -1}}
		if err := json.Unmarshal([]byte(in), &pl); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if len(pl) != len(want) {
			t.Errorf("%s: decoded %v, want %v", in, pl, want)
			continue
		}
		for i := range want {
			if pl[i] != want[i] {
				t.Errorf("%s: decoded %v, want %v", in, pl, want)
			}
		}
	}
	for _, in := range []string{
		`{}`, `1`, `"pairs"`, `[[0,1],]`, `[[01,2]]`, `[[-,2]]`, `[[1,2]`, `[[1 2]]`,
		`[[` + minInt + `0,1]]`, `[[9223372036854775807,-9223372036854775809]]`,
		`[[true,1]]`, `[[1,null]]`, `[[1,2]]x`,
	} {
		var pl PairList
		if err := pl.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted as %v", in, pl)
		}
	}
	// A rejected member is quoted in the error.
	for in, want := range map[string]string{
		`[[0,1],[1.5,2]]`:                 `pair 1: want an integer, got "1.5"`,
		`[[1,2e3]]`:                       `pair 0: want an integer, got "2e3"`,
		`[[1,"2"]]`:                       `pair 0: want an integer, got "\"2\""`,
		`[[9223372036854775808,0]]`:       `pair 0: "9223372036854775808" overflows int`,
		`[[0,1],[2,3],null]`:              `pair 2: want [s, t], got "null"`,
		`[[0,1],[2,3],[4,5],[6,7,8],[9]]`: `pair 3: want [s, t], got more than 2 members`,
	} {
		var pl PairList
		if err := pl.UnmarshalJSON([]byte(in)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", in, err, want)
		}
	}
}

// oraclePairs decodes a pairs value with encoding/json alone: null, or
// an array whose elements each decode to exactly two json.Numbers that
// are unquoted and parse as an int.
func oraclePairs(raw json.RawMessage) (PairList, bool) {
	var elems []json.RawMessage
	if json.Unmarshal(raw, &elems) != nil {
		return nil, false
	}
	var pl PairList
	for _, el := range elems {
		var members []json.Number
		if json.Unmarshal(el, &members) != nil || len(members) != 2 || bytes.IndexByte(el, '"') >= 0 {
			return nil, false
		}
		var pr [2]int
		for j, num := range members {
			v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
			if err != nil {
				return nil, false
			}
			pr[j] = int(v)
		}
		pl = append(pl, pr)
	}
	return pl, true
}

// oracleBatch decodes a /v1/batch body with encoding/json alone. The
// envelope decodes into raw pairs; every top-level key that matches
// "pairs" the way encoding/json matches field names must hold a valid
// pairs value, and the last one wins.
func oracleBatch(data []byte) (PairList, uint64, bool) {
	var env struct {
		Pairs json.RawMessage `json:"pairs"`
		Base  uint64          `json:"base,omitempty"`
	}
	if json.Unmarshal(data, &env) != nil {
		return nil, 0, false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, _ := dec.Token(); tok == json.Delim('{') {
		for dec.More() {
			key, _ := dec.Token()
			var val json.RawMessage
			if dec.Decode(&val) != nil {
				return nil, 0, false
			}
			if k, _ := key.(string); strings.EqualFold(k, "pairs") {
				if _, ok := oraclePairs(val); !ok {
					return nil, 0, false
				}
			}
		}
	}
	if env.Pairs == nil {
		return nil, env.Base, true
	}
	pl, ok := oraclePairs(env.Pairs)
	return pl, env.Base, ok
}

// FuzzBatchRequest checks the pair parser against encoding/json: a
// body is accepted iff encoding/json accepts its envelope and every
// pairs element is an array of exactly two integer members within int
// range, and then the decoded pairs and base equal the oracle's. The
// request starts with a pooled-looking backing array full of
// sentinels, so a parser that skips an element leaves one behind and
// fails.
func FuzzBatchRequest(f *testing.F) {
	for _, tc := range malformedPairBodies {
		f.Add([]byte(tc.body))
	}
	for _, tc := range validPairBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"pairs":[[1,2]],"pairs":[[3,4]],"base":7}`))
	f.Add([]byte(`{"pAirs":[[0]],"pairs":[]}`))
	f.Add([]byte(`{"pairs":[[1,2]],"base":-1}`))

	const sentinel = -424242
	f.Fuzz(func(t *testing.T, data []byte) {
		backing := make(PairList, 8)
		for i := range backing {
			backing[i] = [2]int{sentinel, sentinel}
		}
		req := BatchRequest{Pairs: backing[:0]}
		err := json.Unmarshal(data, &req)
		want, base, ok := oracleBatch(data)
		if (err == nil) != ok {
			t.Fatalf("%q: parser error %v, oracle accepts %v", data, err, ok)
		}
		if err != nil {
			return
		}
		if len(req.Pairs) != len(want) || req.Base != base {
			t.Fatalf("%q: decoded %v base %d, oracle %v base %d", data, req.Pairs, req.Base, want, base)
		}
		for i := range want {
			if req.Pairs[i] != want[i] {
				t.Fatalf("%q: pair %d decoded %v, oracle %v", data, i, req.Pairs[i], want[i])
			}
		}
	})
}

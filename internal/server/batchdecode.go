package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"unicode/utf8"

	reach "repro"
)

// One-pass decoding of the /v1/batch body. The documented grammar is
//
//	{"pairs":[{"s":REF,"t":REF}, ...]}
//
// with JSON whitespace anywhere between tokens, the two keys of a pair in
// either order, and REF a non-negative integer or a string without
// escapes. scanBatch reads exactly that, straight into []reach.Pair,
// resolving and range-checking every reference as it goes. Whatever it
// does not recognise — escapes, other or re-cased or repeated keys, a
// reference that does not resolve, malformed JSON — it declines, and the
// same bytes go to encoding/json (decodeBatch), which stays the semantic
// reference: every error body and every leniency of the old decoder
// (unknown keys ignored, last duplicate wins, trailing bytes after the
// document ignored) is that decoder's, not a re-implementation of it.

// scanVerdict is what scanBatch made of a body.
type scanVerdict int

const (
	// scanDeclined: not the documented grammar (or an unresolvable
	// reference); decode the same bytes with encoding/json.
	scanDeclined scanVerdict = iota
	// scanOK: the whole body was read into pairs.
	scanOK
	// scanTooMany: the body opens a pair beyond the limit. Refused on the
	// spot — the rest of the body is never read.
	scanTooMany
)

// scanRef reads the vertex reference starting at b[i]: a string of
// unescaped characters (tok is the text between the quotes) or a
// non-negative integer literal (tok is its digits). next is the index
// after the reference. Anything else is not ok, and the caller falls back
// to encoding/json: escape sequences, control characters, invalid UTF-8,
// and every other JSON value.
func scanRef(b []byte, i int) (tok []byte, next int, ok bool) {
	if i >= len(b) {
		return nil, i, false
	}
	if b[i] == '"' {
		ascii := true
		for j := i + 1; j < len(b); j++ {
			switch c := b[j]; {
			case c == '"':
				tok = b[i+1 : j]
				return tok, j + 1, ascii || utf8.Valid(tok)
			case c == '\\' || c < 0x20:
				return nil, i, false
			case c >= utf8.RuneSelf:
				ascii = false
			}
		}
		return nil, i, false
	}
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	// JSON has no leading zeros: "0" is a number, "01" is a syntax error
	// for encoding/json to report.
	if j == i || (b[i] == '0' && j > i+1) {
		return nil, i, false
	}
	return b[i:j], j, true
}

// vertexOfToken is vertexOf on the token of a scanned reference, without
// the error text: not ok wherever vertexOf would fail.
func vertexOfToken(g *reach.Graph, tok []byte) (reach.V, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	id := uint64(0)
	for _, c := range tok {
		if c < '0' || c > '9' || id > math.MaxUint32 {
			id = math.MaxUint64 // not a 32-bit decimal id: a name
			break
		}
		id = id*10 + uint64(c-'0')
	}
	if id <= math.MaxUint32 {
		return reach.V(id), id < uint64(g.N())
	}
	return g.VertexByName(string(tok))
}

// The scanner is a run of index-passing helpers over the body: each takes
// the index to read at and returns the index after what it read.

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// punct consumes optional whitespace and then the single byte c.
func punct(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// scanVertex reads the reference at b[i] and resolves it against g. A
// decimal id of one to nine digits without a leading zero is parsed as it
// is scanned (it fits in 32 bits, so vertexOfToken would take it as an
// id too); every other reference goes through scanRef and vertexOfToken.
func scanVertex(b []byte, i int, g *reach.Graph) (reach.V, int, bool) {
	if i < len(b) && b[i]-'1' < 9 {
		id, j := uint32(0), i
		for ; j < len(b) && j-i < 9 && b[j]-'0' < 10; j++ {
			id = id*10 + uint32(b[j]-'0')
		}
		if j == len(b) || b[j]-'0' >= 10 {
			return reach.V(id), j, int(id) < g.N()
		}
	}
	tok, next, ok := scanRef(b, i)
	if !ok {
		return 0, i, false
	}
	v, ok := vertexOfToken(g, tok)
	return v, next, ok
}

// scanBatch decodes the body b into pairs (appended to pairs[:0]) when it
// is the documented grammar; see the file comment. limit is Config.MaxBatch.
func scanBatch(b []byte, g *reach.Graph, limit int, pairs []reach.Pair) ([]reach.Pair, scanVerdict) {
	pairs = pairs[:0]
	i, ok := punct(b, 0, '{')
	if !ok {
		return pairs, scanDeclined
	}
	const key = `"pairs"`
	if i = skipSpace(b, i); len(b)-i < len(key) || string(b[i:i+len(key)]) != key {
		return pairs, scanDeclined
	}
	if i, ok = punct(b, i+len(key), ':'); !ok {
		return pairs, scanDeclined
	}
	if i, ok = punct(b, i, '['); !ok {
		return pairs, scanDeclined
	}
	i, ok = punct(b, i, ']')
	for more := !ok; more; {
		if i, ok = punct(b, i, '{'); !ok {
			return pairs, scanDeclined
		}
		if len(pairs) == limit {
			return pairs, scanTooMany
		}
		// ends[0] is s, ends[1] is t; have has bit k once ends[k] is read.
		var ends [2]reach.V
		have := 0
		for k := 0; k < 2; k++ {
			if k > 0 {
				if i, ok = punct(b, i, ','); !ok {
					return pairs, scanDeclined
				}
			}
			// "s" or "t", then the colon.
			i = skipSpace(b, i)
			if len(b)-i < 3 || b[i] != '"' || b[i+2] != '"' || b[i+1] != 's' && b[i+1] != 't' {
				return pairs, scanDeclined
			}
			end := int(b[i+1] - 's') // 0 for s, 1 for t
			if i, ok = punct(b, i+3, ':'); !ok {
				return pairs, scanDeclined
			}
			if ends[end], i, ok = scanVertex(b, skipSpace(b, i), g); !ok {
				return pairs, scanDeclined
			}
			have |= 1 << end
		}
		if have != 3 {
			return pairs, scanDeclined
		}
		if i, ok = punct(b, i, '}'); !ok {
			return pairs, scanDeclined
		}
		pairs = append(pairs, reach.Pair{S: ends[0], T: ends[1]})
		if i, more = punct(b, i, ','); !more {
			if i, ok = punct(b, i, ']'); !ok {
				return pairs, scanDeclined
			}
		}
	}
	if i, ok = punct(b, i, '}'); !ok || skipSpace(b, i) != len(b) {
		return pairs, scanDeclined
	}
	return pairs, scanOK
}

// batchRequest is the /v1/batch body as encoding/json sees it:
// {"pairs":[{"s":0,"t":"G"},...]}. Vertices are JSON numbers (ids) or
// strings (ids or names).
type batchRequest struct {
	Pairs []struct {
		S vertexRef `json:"s"`
		T vertexRef `json:"t"`
	} `json:"pairs"`
}

// decodeBatch is scanBatch for the bodies scanBatch declined: the
// encoding/json decoding of the same bytes, then the limit, then the
// resolution, in the order and with the error texts the handler always
// had. Like the streaming decoder it replaces it reads one JSON document
// and ignores whatever follows it.
func decodeBatch(body []byte, g *reach.Graph, limit int, pairs []reach.Pair) ([]reach.Pair, scanVerdict, error) {
	pairs = pairs[:0]
	var req batchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return pairs, scanDeclined, fmt.Errorf("bad batch body: %w", err)
	}
	if len(req.Pairs) > limit {
		return pairs, scanTooMany, nil
	}
	for i, p := range req.Pairs {
		sv, err := p.S.resolve(g)
		if err != nil {
			return pairs, scanDeclined, fmt.Errorf("pair %d: %w", i, err)
		}
		tv, err := p.T.resolve(g)
		if err != nil {
			return pairs, scanDeclined, fmt.Errorf("pair %d: %w", i, err)
		}
		pairs = append(pairs, reach.Pair{S: sv, T: tv})
	}
	return pairs, scanOK, nil
}

// vertexRef is a JSON vertex reference: a number (id) or a string (id or
// name).
type vertexRef struct {
	raw string
}

// UnmarshalJSON takes scanRef's direct parse when the value is a plain
// string or integer — every reference a well-behaved client sends, in
// /v1/batch and /v1/mutate alike — and leaves escapes, other number forms
// and wrong types (with their error texts) to encoding/json.
func (v *vertexRef) UnmarshalJSON(b []byte) error {
	if tok, next, ok := scanRef(b, 0); ok && next == len(b) {
		v.raw = string(tok)
		return nil
	}
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &v.raw)
	}
	var n json.Number
	err := json.Unmarshal(b, &n)
	v.raw = n.String()
	return err
}

func (v vertexRef) resolve(g *reach.Graph) (reach.V, error) {
	return vertexOf(g, v.raw)
}

// batchScratch is the per-request working set of handleBatch: the body,
// the decoded pairs and the encoded response, reused across requests.
type batchScratch struct {
	body  bytes.Buffer
	pairs []reach.Pair
	resp  []byte
}

// maxPooledBatchBody keeps one oversized request from pinning its buffer
// in the pool: bodies are bounded by maxBatchBody (16 MB), a 1024-pair
// request is ~20 KB.
const maxPooledBatchBody = 1 << 20

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func putBatchScratch(sc *batchScratch) {
	if sc.body.Cap() <= maxPooledBatchBody {
		batchScratchPool.Put(sc)
	}
}

// appendBatchResponse appends the /v1/batch response document for out —
// byte for byte what encoding/json writes for batchResponse, trailing
// newline included.
func appendBatchResponse(b []byte, out []bool) []byte {
	b = append(b, `{"results":[`...)
	for i, r := range out {
		if i > 0 {
			b = append(b, ',')
		}
		if r {
			b = append(b, "true"...)
		} else {
			b = append(b, "false"...)
		}
	}
	return append(b, "]}\n"...)
}

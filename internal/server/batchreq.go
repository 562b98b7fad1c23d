package server

import (
	"errors"
	"fmt"
	"math"
)

// BatchRequest is the /v1/batch body, shared by the daemon and the
// gateway. Base offsets the stream ids: pair i routes with stream
// base+i instead of i, which lets a gateway split one logical batch
// across replicas and get back exactly the bytes one replica would have
// produced for the whole batch (advertised as the "batch-base" feature
// on /v1/mesh).
//
// encoding/json decodes the envelope (key matching, unknown keys,
// base); the pairs array is parsed by PairList.UnmarshalJSON.
type BatchRequest struct {
	Pairs PairList `json:"pairs"`
	Base  uint64   `json:"base,omitempty"`
}

// PairList is the "pairs" array of a batch request: every element is
// exactly [s, t], two JSON integers that fit an int. Anything else —
// null, one or three members, a fraction, an exponent, a string, an
// overflow — is an error naming the pair index. A JSON null for the
// whole array is an empty list.
//
// The parser fills the list's existing backing array, so a pooled
// request decodes a steady stream of equal-sized batches without
// growing a slice, and no element of an earlier request can survive
// into a later one: every element is written or the decode fails.
type PairList [][2]int

// UnmarshalJSON parses the pairs array by hand. encoding/json has
// already checked that data is one well-formed JSON value; the parser
// still checks every byte it relies on.
func (pl *PairList) UnmarshalJSON(data []byte) error {
	p := pairParser{data: data}
	out := (*pl)[:0]
	p.skipSpace()
	if p.literal("null") {
		*pl = out
		return p.end()
	}
	if !p.consume('[') {
		return errors.New("pairs: want an array of [s, t] pairs")
	}
	if p.skipSpace(); !p.consume(']') {
		for k := 0; ; k++ {
			var pr [2]int
			if err := p.pair(k, &pr); err != nil {
				return err
			}
			out = append(out, pr)
			if p.skipSpace(); p.consume(']') {
				break
			}
			if !p.consume(',') {
				return fmt.Errorf("pairs: after pair %d: want ',' or ']'", k)
			}
			p.skipSpace()
		}
	}
	*pl = out
	return p.end()
}

// pairParser is a cursor over the bytes of one pairs array.
type pairParser struct {
	data []byte
	i    int
}

func (p *pairParser) skipSpace() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *pairParser) consume(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal advances past lit if the next bytes spell it.
func (p *pairParser) literal(lit string) bool {
	if len(p.data)-p.i >= len(lit) && string(p.data[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// end requires that only whitespace is left.
func (p *pairParser) end() error {
	if p.skipSpace(); p.i != len(p.data) {
		return errors.New("pairs: unexpected data after the array")
	}
	return nil
}

// pair parses element k, which must be exactly [s, t].
func (p *pairParser) pair(k int, pr *[2]int) error {
	if !p.consume('[') {
		return fmt.Errorf("pair %d: want [s, t], got %s", k, p.token())
	}
	if p.skipSpace(); p.consume(']') {
		return fmt.Errorf("pair %d: want [s, t], got 0 members", k)
	}
	for j := 0; j < 2; j++ {
		v, err := p.int(k)
		if err != nil {
			return err
		}
		pr[j] = v
		p.skipSpace()
		if j == 0 {
			if p.consume(']') {
				return fmt.Errorf("pair %d: want [s, t], got 1 member", k)
			}
			if !p.consume(',') {
				return fmt.Errorf("pair %d: want ',' after s", k)
			}
			p.skipSpace()
		}
	}
	if p.consume(']') {
		return nil
	}
	if p.consume(',') {
		return fmt.Errorf("pair %d: want [s, t], got more than 2 members", k)
	}
	return fmt.Errorf("pair %d: want ']' after t", k)
}

// int parses one JSON integer that fits an int: an optional minus,
// then digits with no leading zero, and no fraction or exponent.
func (p *pairParser) int(k int) (int, error) {
	start := p.i
	neg := p.consume('-')
	limit := uint64(math.MaxInt)
	if neg {
		limit++ // |math.MinInt|
	}
	digits := p.i
	var v uint64
	for p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9' {
		d := uint64(p.data[p.i] - '0')
		if v > (limit-d)/10 {
			p.i = start
			return 0, fmt.Errorf("pair %d: %s overflows int", k, p.token())
		}
		v = v*10 + d
		p.i++
	}
	n := p.i - digits
	badLead := n > 1 && p.data[digits] == '0'
	if n == 0 || badLead || p.i < len(p.data) && (p.data[p.i] == '.' || p.data[p.i] == 'e' || p.data[p.i] == 'E') {
		p.i = start
		return 0, fmt.Errorf("pair %d: want an integer, got %s", k, p.token())
	}
	if neg {
		return int(-v), nil // two's complement wraps |math.MinInt| to itself
	}
	return int(v), nil
}

// token describes the value at the cursor for an error message: the
// raw bytes up to the next delimiter, at most 32 of them.
func (p *pairParser) token() string {
	if p.i >= len(p.data) {
		return "end of input"
	}
	j := p.i
	for j < len(p.data) && j-p.i < 32 {
		c := p.data[j]
		if c == ',' || c == ']' || c == '}' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		j++
	}
	if j == p.i {
		j++
	}
	return fmt.Sprintf("%q", p.data[p.i:j])
}

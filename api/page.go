package api

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// AppendResultPage appends the wire form of one result page to dst and
// returns the extended buffer. The bytes are exactly those that
// json.NewEncoder(w).Encode writes for
//
//	&ResultPage{JobID: jobID, Offset: offset, Total: total, Values: Values(values)}
//
// trailing newline included: the job id is escaped as encoding/json escapes
// it (HTML-safe, U+2028/U+2029 escaped, invalid UTF-8 as \ufffd) and every
// value is written as Value.MarshalJSON writes it. A nil values slice is
// written as [] like an empty one. Appending into a buffer with enough
// capacity allocates nothing.
func AppendResultPage(dst []byte, jobID string, offset, total int, values []float64) []byte {
	dst = append(dst, `{"job_id":`...)
	dst = appendString(dst, jobID)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendInt(dst, int64(offset), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, `,"values":[`...)
	for i, f := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, f)
	}
	return append(dst, "]}\n"...)
}

// appendValue appends Value(f)'s JSON text: ±Inf and NaN as strings,
// finite values as strconv's shortest round-trip 'g' form.
func appendValue(dst []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Inf"`...)
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way encoding/json's
// default (HTML-escaping) encoder escapes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeResultPageInto parses one result page and appends its values to
// dst, returning the extended slice. It accepts exactly the documents that
// json.Unmarshal accepts into a ResultPage and yields the same fields: keys
// in any order and matched case-insensitively, any whitespace, escaped
// strings, unknown keys skipped, a later duplicate key overriding an
// earlier one, and null leaving a field as it was (values: empty). It
// checks syntax only — a negative total or an offset that disagrees with
// the caller's position is the caller's to reject. It allocates only the
// job id and the growth of dst, both bounded by len(data).
func DecodeResultPageInto(dst []float64, data []byte) (jobID string, offset, total int, values []float64, err error) {
	p := pageParser{data: data}
	values = dst
	base := len(dst)
	p.ws()
	switch {
	case p.literal("null"):
		// encoding/json decodes a top-level null into a zero ResultPage.
	case p.peek() != '{':
		return "", 0, 0, dst, p.fail("want an object")
	default:
		p.pos++
		p.ws()
		if p.peek() == '}' {
			p.pos++
			break
		}
		for {
			p.ws()
			if p.peek() != '"' {
				return "", 0, 0, dst, p.fail("want a key")
			}
			key, plain, err := p.str()
			if err != nil {
				return "", 0, 0, dst, err
			}
			p.ws()
			if p.peek() != ':' {
				return "", 0, 0, dst, p.fail("want ':'")
			}
			p.pos++
			p.ws()
			if !plain {
				var buf [32]byte
				key = unquote(buf[:0], key)
			}
			switch pageField(key) {
			case "job_id":
				switch p.peek() {
				case '"':
					raw, plain, err := p.str()
					if err != nil {
						return "", 0, 0, dst, err
					}
					if !plain {
						raw = unquote(nil, raw)
					}
					jobID = string(raw)
				case 'n':
					if !p.literal("null") {
						return "", 0, 0, dst, p.fail("invalid literal")
					}
				default:
					return "", 0, 0, dst, p.fail("job_id is not a string")
				}
			case "offset":
				if err := p.intField(&offset); err != nil {
					return "", 0, 0, dst, err
				}
			case "total":
				if err := p.intField(&total); err != nil {
					return "", 0, 0, dst, err
				}
			case "values":
				values = values[:base]
				if values, err = p.valuesField(values); err != nil {
					return "", 0, 0, dst, err
				}
			default:
				if err := p.skip(1); err != nil {
					return "", 0, 0, dst, err
				}
			}
			p.ws()
			if c := p.peek(); c == ',' {
				p.pos++
				continue
			} else if c == '}' {
				p.pos++
				break
			}
			return "", 0, 0, dst, p.fail("want ',' or '}'")
		}
	}
	p.ws()
	if p.pos != len(p.data) {
		return "", 0, 0, dst, p.fail("trailing data")
	}
	return jobID, offset, total, values, nil
}

// pageField maps a decoded key onto the ResultPage field it sets, matching
// the way encoding/json does: exact name first, then Unicode case folding.
// It returns "" for a key that sets no field.
func pageField(key []byte) string {
	for _, name := range pageFields {
		if string(key) == name {
			return name
		}
	}
	for _, name := range pageFields {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

var pageFields = [...]string{"job_id", "offset", "total", "values"}

// maxDepth is encoding/json's nesting limit: a document with more open
// objects and arrays than this is a syntax error there, so it is here too.
const maxDepth = 10000

// pageParser is a cursor over one result-page document.
type pageParser struct {
	data []byte
	pos  int
}

func (p *pageParser) fail(what string) error {
	return fmt.Errorf("api: malformed result page: %s at byte %d", what, p.pos)
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (p *pageParser) peek() byte {
	if p.pos < len(p.data) {
		return p.data[p.pos]
	}
	return 0
}

func (p *pageParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// literal consumes lit if the input continues with it.
func (p *pageParser) literal(lit string) bool {
	if len(p.data)-p.pos >= len(lit) && string(p.data[p.pos:p.pos+len(lit)]) == lit {
		p.pos += len(lit)
		return true
	}
	return false
}

// str consumes the JSON string at the cursor and returns its raw contents
// between the quotes. plain reports that the contents are ASCII without
// escapes, so they need no unquoting.
func (p *pageParser) str() (raw []byte, plain bool, err error) {
	plain = true
	for i := p.pos + 1; i < len(p.data); {
		switch c := p.data[i]; {
		case c == '"':
			raw = p.data[p.pos+1 : i]
			p.pos = i + 1
			return raw, plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(p.data) {
				i++
				continue
			}
			switch p.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if _, ok := hex4(p.data[i+2:]); !ok {
					p.pos = i
					return nil, false, p.fail("invalid \\u escape")
				}
				i += 6
			default:
				p.pos = i
				return nil, false, p.fail("invalid escape")
			}
		case c < ' ':
			p.pos = i
			return nil, false, p.fail("control character in string")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	p.pos = len(p.data)
	return nil, false, p.fail("unterminated string")
}

// hex4 parses the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unquote appends the decoded form of a string's raw contents, which str
// has validated, to dst. Like encoding/json it replaces invalid UTF-8 and
// unpaired surrogates with U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r, _ := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if v, ok := hex4(raw[i+2:]); ok {
							r2 = v
						}
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\' or '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// number consumes a JSON number and returns its text.
func (p *pageParser) number() ([]byte, error) {
	d, start := p.data, p.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		p.pos = i
		return nil, p.fail("invalid number")
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			p.pos = j
			return nil, p.fail("invalid number")
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			p.pos = j
			return nil, p.fail("invalid number")
		}
		i = j
	}
	p.pos = i
	return d[start:i], nil
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// intField decodes an integer field; null leaves *v as it was.
func (p *pageParser) intField(v *int) error {
	if p.literal("null") {
		return nil
	}
	if c := p.peek(); c != '-' && (c < '0' || c > '9') {
		return p.fail("not an integer")
	}
	at := p.pos
	num, err := p.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		p.pos = at
		return p.fail("not an int")
	}
	*v = int(n)
	return nil
}

// valuesField decodes the values array (or null) and appends its elements
// to dst.
func (p *pageParser) valuesField(dst []float64) ([]float64, error) {
	if p.literal("null") {
		return dst, nil
	}
	if p.peek() != '[' {
		return dst, p.fail("values is not an array")
	}
	p.pos++
	p.ws()
	if p.peek() == ']' {
		p.pos++
		return dst, nil
	}
	for {
		p.ws()
		at := p.pos
		var f float64
		switch c := p.peek(); {
		case c == '-' || '0' <= c && c <= '9':
			num, err := p.number()
			if err != nil {
				return dst, err
			}
			if f, err = strconv.ParseFloat(string(num), 64); err != nil {
				p.pos = at
				return dst, p.fail("value out of range")
			}
		case c == '"':
			raw, plain, err := p.str()
			if err != nil {
				return dst, err
			}
			if !plain {
				var buf [8]byte
				raw = unquote(buf[:0], raw)
			}
			switch string(raw) {
			case "+Inf":
				f = math.Inf(1)
			case "-Inf":
				f = math.Inf(-1)
			case "NaN":
				f = math.NaN()
			default:
				p.pos = at
				return dst, p.fail("invalid non-finite value")
			}
		default:
			return dst, p.fail("invalid value")
		}
		dst = append(dst, f)
		p.ws()
		if c := p.peek(); c == ',' {
			p.pos++
			continue
		} else if c == ']' {
			p.pos++
			return dst, nil
		}
		return dst, p.fail("want ',' or ']'")
	}
}

// skip consumes one JSON value of a key that sets no field, checking its
// syntax as encoding/json does. depth counts the enclosing open objects
// and arrays.
func (p *pageParser) skip(depth int) error {
	switch c := p.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return p.fail("exceeded max depth")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		p.pos++
		p.ws()
		if p.peek() == end {
			p.pos++
			return nil
		}
		for {
			p.ws()
			if end == '}' {
				if p.peek() != '"' {
					return p.fail("want a key")
				}
				if _, _, err := p.str(); err != nil {
					return err
				}
				p.ws()
				if p.peek() != ':' {
					return p.fail("want ':'")
				}
				p.pos++
				p.ws()
			}
			if err := p.skip(depth); err != nil {
				return err
			}
			p.ws()
			switch p.peek() {
			case ',':
				p.pos++
			case end:
				p.pos++
				return nil
			default:
				return p.fail("want ',' or a closing bracket")
			}
		}
	case c == '"':
		_, _, err := p.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := p.number()
		return err
	case p.literal("true") || p.literal("false") || p.literal("null"):
		return nil
	default:
		return p.fail("invalid value")
	}
}

package service

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// appendResult appends r as WriteJSON renders it (json.MarshalIndent
// with an empty prefix and indent, then a newline) — one field or
// element a line with no indentation, ": " after a key, HTML-safe
// escaping, encoding/json's number format, omitempty, null for a nil
// slice and [] for an empty one — in one pass over the result, with no
// reflection. Like WriteJSON it appends nothing for a result that holds
// a NaN or an infinity.
//
// It is the one renderer of a result body: a miss is written from it
// and a cache entry's hit body is cut from it. A field added to Result,
// DesignJSON, FlowPatternJSON or PlacementJSON must be added here too;
// TestAppendResultIsTheEncodersBytes fails until it is.
func appendResult(b []byte, r *Result) []byte {
	if !finite(r.Objective, r.ElapsedMS) || r.Design != nil && !finite(r.Design.Isolation, r.Design.Usability) {
		return b
	}
	start := len(b)
	b = append(b, "{\n\"status\": "...)
	b = appendString(b, r.Status)
	b = append(b, ",\n\"mode\": "...)
	b = appendString(b, string(r.Mode))
	b = append(b, ",\n\"fingerprint\": "...)
	b = appendString(b, r.Fingerprint)
	if r.JobID != "" {
		b = append(b, ",\n\"job_id\": "...)
		b = appendString(b, r.JobID)
	}
	if r.Design != nil {
		b = append(b, ",\n\"design\": "...)
		b = appendDesign(b, r.Design)
	}
	if r.Objective != 0 {
		b = append(b, ",\n\"objective\": "...)
		b = appendFloat(b, r.Objective)
	}
	if len(r.Conflict) > 0 {
		b = append(b, ",\n\"conflict\": "...)
		b = appendStrings(b, r.Conflict)
	}
	if r.Text != "" {
		b = append(b, ",\n\"text\": "...)
		b = appendString(b, r.Text)
	}
	b = append(b, ",\n\"cached\": "...)
	b = strconv.AppendBool(b, r.Cached)
	if r.Session != "" {
		b = append(b, ",\n\"session\": "...)
		b = appendString(b, r.Session)
	}
	if r.Degraded {
		b = append(b, ",\n\"degraded\": true"...)
	}
	if r.DegradedReason != "" {
		b = append(b, ",\n\"degraded_reason\": "...)
		b = appendString(b, r.DegradedReason)
	}
	b = append(b, ",\n\"elapsed_ms\": "...)
	b = appendFloat(b, r.ElapsedMS)
	if r.Decomp != nil {
		// A handful of regions: the encoder renders them.
		js, err := json.MarshalIndent(r.Decomp, "", "")
		if err != nil {
			return b[:start]
		}
		b = append(b, ",\n\"decomp\": "...)
		b = append(b, js...)
	}
	return append(b, "\n}\n"...)
}

// appendDesign appends a design object.
func appendDesign(b []byte, d *DesignJSON) []byte {
	b = append(b, "{\n\"isolation\": "...)
	b = appendFloat(b, d.Isolation)
	b = append(b, ",\n\"usability\": "...)
	b = appendFloat(b, d.Usability)
	b = append(b, ",\n\"cost\": "...)
	b = strconv.AppendInt(b, d.Cost, 10)
	b = append(b, ",\n\"exact\": "...)
	b = strconv.AppendBool(b, d.Exact)
	b = append(b, ",\n\"flows\": "...)
	switch {
	case d.Flows == nil:
		b = append(b, "null"...)
	case len(d.Flows) == 0:
		b = append(b, "[]"...)
	default:
		for i, f := range d.Flows {
			if i == 0 {
				b = append(b, "[\n{\n\"src\": "...)
			} else {
				b = append(b, ",\n{\n\"src\": "...)
			}
			b = strconv.AppendInt(b, int64(f.Src), 10)
			b = append(b, ",\n\"dst\": "...)
			b = strconv.AppendInt(b, int64(f.Dst), 10)
			b = append(b, ",\n\"svc\": "...)
			b = strconv.AppendInt(b, int64(f.Svc), 10)
			b = append(b, ",\n\"pattern\": "...)
			b = strconv.AppendInt(b, int64(f.Pattern), 10)
			b = append(b, ",\n\"name\": "...)
			b = appendString(b, f.Name)
			b = append(b, "\n}"...)
		}
		b = append(b, "\n]"...)
	}
	b = append(b, ",\n\"placements\": "...)
	switch {
	case d.Placements == nil:
		b = append(b, "null"...)
	case len(d.Placements) == 0:
		b = append(b, "[]"...)
	default:
		for i, pl := range d.Placements {
			if i == 0 {
				b = append(b, "[\n{\n\"a\": "...)
			} else {
				b = append(b, ",\n{\n\"a\": "...)
			}
			b = strconv.AppendInt(b, int64(pl.A), 10)
			b = append(b, ",\n\"b\": "...)
			b = strconv.AppendInt(b, int64(pl.B), 10)
			b = append(b, ",\n\"devices\": "...)
			switch {
			case pl.Devices == nil:
				b = append(b, "null"...)
			case len(pl.Devices) == 0:
				b = append(b, "[]"...)
			default:
				for k, dev := range pl.Devices {
					if k == 0 {
						b = append(b, "[\n"...)
					} else {
						b = append(b, ",\n"...)
					}
					b = strconv.AppendInt(b, int64(dev), 10)
				}
				b = append(b, "\n]"...)
			}
			b = append(b, ",\n\"names\": "...)
			b = appendStrings(b, pl.Names)
			b = append(b, "\n}"...)
		}
		b = append(b, "\n]"...)
	}
	return append(b, "\n}"...)
}

// appendStrings appends a string array, one element a line.
func appendStrings(b []byte, ss []string) []byte {
	switch {
	case ss == nil:
		return append(b, "null"...)
	case len(ss) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = appendString(b, s)
	}
	return append(b, '\n', ']')
}

// appendFloat is encoding/json's float64 format: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 on, with
// a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// finite reports whether every value can be rendered as a JSON number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// htmlSafe marks the ASCII bytes a JSON string holds verbatim when HTML
// characters are escaped.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s as a JSON string the way encoding/json escapes
// it with HTML escaping on: control bytes, '"', '\\', '<', '>' and '&'
// escaped, invalid UTF-8 as \ufffd, U+2028 and U+2029 as \u2028 and
// \u2029, everything else verbatim.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// renderBufs holds the buffers misses are rendered into, so a steady
// stream of fresh results reuses a few buffers instead of growing a new
// one per response. A buffer over maxPooledRender is left to the
// collector, so one huge result does not pin its memory.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRender = 4 << 20

// renderResult renders r into a pooled buffer and hands it to use; the
// bytes are valid only until use returns.
func renderResult(r *Result, use func([]byte)) {
	buf := renderBufs.Get().(*[]byte)
	*buf = appendResult((*buf)[:0], r)
	use(*buf)
	if cap(*buf) <= maxPooledRender {
		renderBufs.Put(buf)
	}
}

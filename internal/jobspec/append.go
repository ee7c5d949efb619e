// The answer encoders of the serving path. A replica answers a
// /v1/batch document, and a /v1/solve miss, by appending its bytes to one
// slice: no Result value is built, and no reflection runs over a result.
// The bytes are exactly those json.Marshal writes for EncodeResult's
// Result and EncodeOutput's Output, which stay as the reference forms
// (FuzzResultBytes holds the two equal): omitempty drops a Float that is
// 0 or -0, a non-finite Float is null, floats take encoding/json's
// format, strings its escaping, and a nil slice is null.

package jobspec

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/batch"
	"repro/internal/mapping"
)

// AppendResult appends the result slot of jr, the bytes of
// json.Marshal(EncodeResult(jr)).
func AppendResult(dst []byte, jr batch.JobResult) []byte {
	if jr.Err != nil {
		return appendErrorSlot(dst, ErrorCode(jr.Err), jr.Err.Error())
	}
	r := &jr.Result
	dst = append(dst, '{')
	dst = appendFloatMember(dst, `"value":`, r.Value)
	if r.Method != "" {
		dst = appendMember(dst, `"method":`)
		dst = appendString(dst, string(r.Method))
	}
	if r.Optimal {
		dst = appendMember(dst, `"optimal":true`)
	}
	dst = appendFloatMember(dst, `"period":`, r.Metrics.Period)
	dst = appendFloatMember(dst, `"latency":`, r.Metrics.Latency)
	dst = appendFloatMember(dst, `"energy":`, r.Metrics.Energy)
	dst = appendMember(dst, `"mapping":`)
	dst = appendMapping(dst, &r.Mapping)
	if r.Degraded {
		dst = appendMember(dst, `"degraded":true`)
		dst = appendFloatMember(dst, `"lowerBound":`, r.LowerBound)
		dst = appendFloatMember(dst, `"boundGap":`, r.Value-r.LowerBound)
		dst = appendMember(dst, `"code":"`+CodeDegraded+`"`)
	}
	return append(dst, '}')
}

// AppendOutput appends the /v1/batch answer to results and stats, the
// bytes MarshalJSON(EncodeOutput(results, stats)) returns, trailing
// newline included.
func AppendOutput(dst []byte, results []batch.JobResult, stats batch.Stats) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendResult(dst, results[i])
	}
	// The stats are one small object per answer, so encoding/json
	// writes them; their integers and finite wall time always encode.
	st, _ := json.Marshal(EncodeStats(stats))
	dst = append(dst, `],"stats":`...)
	dst = append(dst, st...)
	return append(dst, "}\n"...)
}

// appendErrorSlot appends the slot of a failed job, the bytes of
// json.Marshal(Result{Error: msg, Code: code}).
func appendErrorSlot(dst []byte, code, msg string) []byte {
	dst = append(dst, '{')
	if code != "" {
		dst = appendMember(dst, `"code":`)
		dst = appendString(dst, code)
	}
	if msg != "" {
		dst = appendMember(dst, `"error":`)
		dst = appendString(dst, msg)
	}
	return append(dst, '}')
}

// appendMember appends an object member, with the comma that separates
// it from the one before unless it is the first.
func appendMember(dst []byte, member string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, member...)
}

// appendFloatMember appends an omitempty Float member: nothing for 0 and
// -0, null for NaN and ±Inf.
func appendFloatMember(dst []byte, name string, v float64) []byte {
	if v == 0 {
		return dst
	}
	dst = appendMember(dst, name)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(dst, "null"...)
	}
	return appendFloat(dst, v)
}

// appendFloat appends a finite float64 as encoding/json writes it: the
// shortest decimal that reads back to v, in exponent form below 1e-6 and
// from 1e21, with a one-digit negative exponent written e-7, not e-07.
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends s as a JSON string. A string of printable ASCII
// that needs no escape, which every method name and code is, is copied
// as it is; any other goes through encoding/json, which escapes it for
// HTML, escapes U+2028 and U+2029 and turns invalid UTF-8 into U+FFFD.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendMapping appends the bytes of json.Marshal(m).
func appendMapping(dst []byte, m *mapping.Mapping) []byte {
	if m.Apps == nil {
		return append(dst, `{"apps":null}`...)
	}
	dst = append(dst, `{"apps":[`...)
	for a, am := range m.Apps {
		if a > 0 {
			dst = append(dst, ',')
		}
		if am.Intervals == nil {
			dst = append(dst, `{"intervals":null}`...)
			continue
		}
		dst = append(dst, `{"intervals":[`...)
		for j, iv := range am.Intervals {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"from":`...)
			dst = strconv.AppendInt(dst, int64(iv.From), 10)
			dst = append(dst, `,"to":`...)
			dst = strconv.AppendInt(dst, int64(iv.To), 10)
			dst = append(dst, `,"proc":`...)
			dst = strconv.AppendInt(dst, int64(iv.Proc), 10)
			dst = append(dst, `,"mode":`...)
			dst = strconv.AppendInt(dst, int64(iv.Mode), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...)
}

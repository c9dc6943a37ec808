package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types an attribute Value can hold.
type Kind uint8

const (
	// KindInvalid is the zero Kind; a zero Value is invalid.
	KindInvalid Kind = iota
	// KindString holds UTF-8 text.
	KindString
	// KindInt holds a signed 64-bit integer.
	KindInt
	// KindFloat holds a 64-bit floating point number.
	KindFloat
	// KindBool holds a boolean.
	KindBool
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed attribute value attached to vertices and
// edges of the multi-relational graph. Values are small immutable structs
// and are passed by value throughout the library.
//
// A Value is 24 bytes: a string and one word. A string value holds its text
// and a zero word. An int, a float or a bool holds a two-byte tag led by NUL
// ("\x00i", "\x00f", "\x00b") and its payload in the word: the int, the
// float's IEEE bits, or the bool as 0/1. A text that is empty or starts with
// NUL is held behind the tag "\x00s", so no text reads as a tag, and the zero
// Value, whose string is empty, stays invalid. So == compares kind and
// payload bits: a NaN equals the same NaN, and −0 differs from +0. Equal
// compares numbers numerically instead.
type Value struct {
	str  string
	bits uint64
}

// The tags of the kinds held in the word, and the escape of a text that is
// empty or starts with NUL; the second byte tells them apart.
const (
	tagInt    = "\x00i"
	tagFloat  = "\x00f"
	tagBool   = "\x00b"
	tagString = "\x00s"
)

// String constructs a string Value.
func String(s string) Value {
	if s == "" || s[0] == 0 {
		return Value{str: tagString + s}
	}
	return Value{str: s}
}

// Int constructs an integer Value.
func Int(v int64) Value { return Value{str: tagInt, bits: uint64(v)} }

// Float constructs a floating point Value.
func Float(v float64) Value { return Value{str: tagFloat, bits: math.Float64bits(v)} }

// Bool constructs a boolean Value.
func Bool(v bool) Value {
	if v {
		return Value{str: tagBool, bits: 1}
	}
	return Value{str: tagBool}
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind {
	switch {
	case v.str == "":
		return KindInvalid
	case v.str[0] != 0:
		return KindString
	}
	switch v.str[1] {
	case tagInt[1]:
		return KindInt
	case tagFloat[1]:
		return KindFloat
	case tagBool[1]:
		return KindBool
	default:
		return KindString
	}
}

// IsValid reports whether the value holds data of any kind.
func (v Value) IsValid() bool { return v.str != "" }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string {
	switch {
	case v.str == "" || v.str[0] != 0:
		return v.str
	case v.str[1] == tagString[1]:
		return v.str[len(tagString):]
	default:
		return ""
	}
}

// Int64 returns the integer payload, converting from float if necessary.
func (v Value) Int64() int64 {
	switch v.str {
	case tagInt:
		return int64(v.bits)
	case tagFloat:
		return int64(math.Float64frombits(v.bits))
	default:
		return 0
	}
}

// Float64 returns the numeric payload as a float64, converting from int
// if necessary.
func (v Value) Float64() float64 {
	switch v.str {
	case tagInt:
		return float64(int64(v.bits))
	case tagFloat:
		return math.Float64frombits(v.bits)
	default:
		return 0
	}
}

// BoolVal returns the boolean payload.
func (v Value) BoolVal() bool { return v.str == tagBool && v.bits != 0 }

// IsNumeric reports whether the value holds an int or float.
func (v Value) IsNumeric() bool { return v.str == tagInt || v.str == tagFloat }

// Equal reports whether two values are equal. Numeric values of different
// kinds (int vs float) compare equal when they represent the same number.
func (v Value) Equal(o Value) bool {
	if k := v.Kind(); k == o.Kind() {
		switch k {
		case KindString:
			return v.str == o.str // the escape is one-to-one
		case KindInt, KindBool:
			return v.bits == o.bits
		case KindFloat:
			return v.Float64() == o.Float64()
		default:
			return true
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		return v.Float64() == o.Float64()
	}
	return false
}

// Compare returns -1, 0 or +1 ordering v relative to o. Values of
// incomparable kinds order by kind. Numeric kinds compare numerically.
func (v Value) Compare(o Value) int {
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.Float64(), o.Float64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	k, ok := v.Kind(), o.Kind()
	if k != ok {
		if k < ok {
			return -1
		}
		return 1
	}
	switch k {
	case KindString:
		return strings.Compare(v.Str(), o.Str())
	case KindBool:
		switch {
		case v.bits == o.bits:
			return 0
		case v.bits == 0:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// String renders the value for display and DOT/JSON export.
func (v Value) String() string {
	switch v.Kind() {
	case KindString:
		return v.Str()
	case KindInt:
		return strconv.FormatInt(v.Int64(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.BoolVal())
	default:
		return "<invalid>"
	}
}

// ParseValue converts a textual representation into the most specific Value
// kind: bool, int, float, then string. It is used by the query DSL parser.
func ParseValue(s string) Value {
	switch s {
	case "true", "TRUE", "True":
		return Bool(true)
	case "false", "FALSE", "False":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return String(s)
}

// Attributes is a set of named values attached to a vertex or an edge.
// A nil Attributes behaves like an empty set for reads.
type Attributes map[string]Value

// Get returns the value stored under key and whether it exists.
func (a Attributes) Get(key string) (Value, bool) {
	if a == nil {
		return Value{}, false
	}
	v, ok := a[key]
	return v, ok
}

// Set stores a value under key and returns the (possibly newly allocated)
// attribute map so callers can use it on a nil map:
//
//	attrs = attrs.Set("port", graph.Int(443))
func (a Attributes) Set(key string, v Value) Attributes {
	if a == nil {
		a = make(Attributes, 1)
	}
	a[key] = v
	return a
}

// Clone returns a deep copy of the attribute set.
func (a Attributes) Clone() Attributes {
	if a == nil {
		return nil
	}
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Covers reports whether every entry of b is already present in a with an
// identical value (==: the same kind and payload bits, so a NaN covers
// itself and −0 does not cover +0) — the "merge would be a no-op" test that
// lets the stream ingestion path skip per-edge attribute copies.
func (a Attributes) Covers(b Attributes) bool {
	if len(b) > len(a) {
		return false
	}
	for k, v := range b {
		if av, ok := a[k]; !ok || av != v {
			return false
		}
	}
	return true
}

// Merge returns a new attribute set containing all entries of a overridden
// by entries of b.
func (a Attributes) Merge(b Attributes) Attributes {
	if len(a) == 0 {
		return b.Clone()
	}
	out := a.Clone()
	for k, v := range b {
		out = out.Set(k, v)
	}
	return out
}

// String renders the attributes deterministically (sorted by key).
func (a Attributes) String() string {
	if len(a) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", k, a[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// sortStrings is a tiny insertion sort used to avoid importing sort for a
// single call site in hot paths (attribute sets are tiny).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

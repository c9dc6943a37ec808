package graph

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize pins a Value at 24 bytes, a string and one word: each slot
// of an attribute map's group holds a 16-B key and a Value.
func TestValueSize(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 24 {
		t.Fatalf("a Value is %d B, want 24", size)
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"string", String("alpha"), KindString, "alpha"},
		{"int", Int(42), KindInt, "42"},
		{"float", Float(2.5), KindFloat, "2.5"},
		{"bool", Bool(true), KindBool, "true"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.v.Kind() != tc.kind {
				t.Fatalf("kind = %v, want %v", tc.v.Kind(), tc.kind)
			}
			if !tc.v.IsValid() {
				t.Fatalf("value should be valid")
			}
			if got := tc.v.String(); got != tc.str {
				t.Fatalf("String() = %q, want %q", got, tc.str)
			}
		})
	}
	var zero Value
	if zero.IsValid() {
		t.Fatalf("zero value must be invalid")
	}
	if zero.Kind() != KindInvalid {
		t.Fatalf("zero kind = %v, want invalid", zero.Kind())
	}
}

func TestValueNumericConversions(t *testing.T) {
	if got := Int(7).Float64(); got != 7.0 {
		t.Fatalf("Int(7).Float64() = %v", got)
	}
	if got := Float(7.9).Int64(); got != 7 {
		t.Fatalf("Float(7.9).Int64() = %v", got)
	}
	if !Int(3).IsNumeric() || !Float(3).IsNumeric() {
		t.Fatalf("int and float must be numeric")
	}
	if String("3").IsNumeric() || Bool(true).IsNumeric() {
		t.Fatalf("string and bool must not be numeric")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Fatalf("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Fatalf("Int(3) should not equal Float(3.5)")
	}
	if !String("x").Equal(String("x")) {
		t.Fatalf("identical strings should be equal")
	}
	if String("x").Equal(Int(0)) {
		t.Fatalf("string and int should not be equal")
	}
	if !Bool(false).Equal(Bool(false)) {
		t.Fatalf("identical bools should be equal")
	}
	// Equal is numeric, while == compares payload bits.
	negZero := Float(math.Copysign(0, -1))
	if !negZero.Equal(Float(0)) || negZero == Float(0) {
		t.Fatalf("−0 must Equal +0 and differ from it under ==")
	}
	if nan := Float(math.NaN()); nan.Equal(nan) || nan != nan {
		t.Fatalf("NaN must not Equal itself and must == itself")
	}
}

func TestValueCompare(t *testing.T) {
	if Int(1).Compare(Int(2)) != -1 {
		t.Fatalf("1 < 2 expected")
	}
	if Int(2).Compare(Float(1.5)) != 1 {
		t.Fatalf("2 > 1.5 expected")
	}
	if Float(2).Compare(Int(2)) != 0 {
		t.Fatalf("2.0 == 2 expected")
	}
	if String("a").Compare(String("b")) != -1 {
		t.Fatalf("a < b expected")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Fatalf("false < true expected")
	}
	if Bool(true).Compare(Bool(true)) != 0 {
		t.Fatalf("true == true expected")
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"true", KindBool},
		{"False", KindBool},
		{"123", KindInt},
		{"-17", KindInt},
		{"1.25", KindFloat},
		{"1e3", KindFloat},
		{"hello", KindString},
		{"", KindString},
	}
	for _, tc := range cases {
		if got := ParseValue(tc.in).Kind(); got != tc.kind {
			t.Errorf("ParseValue(%q).Kind() = %v, want %v", tc.in, got, tc.kind)
		}
	}
}

func TestParseValueRoundTripInt(t *testing.T) {
	f := func(v int64) bool {
		parsed := ParseValue(Int(v).String())
		return parsed.Kind() == KindInt && parsed.Int64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAttributesSetGetOnNil(t *testing.T) {
	var attrs Attributes
	if _, ok := attrs.Get("missing"); ok {
		t.Fatalf("nil attributes should report missing keys")
	}
	attrs = attrs.Set("k", Int(1))
	if v, ok := attrs.Get("k"); !ok || v.Int64() != 1 {
		t.Fatalf("Set on nil map failed: %v %v", v, ok)
	}
}

func TestAttributesCloneIsDeep(t *testing.T) {
	a := Attributes{"x": Int(1), "y": String("s")}
	c := a.Clone()
	c["x"] = Int(99)
	if a["x"].Int64() != 1 {
		t.Fatalf("clone mutated the original")
	}
	var nilAttrs Attributes
	if nilAttrs.Clone() != nil {
		t.Fatalf("clone of nil should be nil")
	}
}

func TestAttributesMerge(t *testing.T) {
	a := Attributes{"x": Int(1), "y": Int(2)}
	b := Attributes{"y": Int(20), "z": Int(30)}
	m := a.Merge(b)
	if m["x"].Int64() != 1 || m["y"].Int64() != 20 || m["z"].Int64() != 30 {
		t.Fatalf("merge produced %v", m)
	}
	if a["y"].Int64() != 2 {
		t.Fatalf("merge mutated receiver")
	}
	var empty Attributes
	if got := empty.Merge(b); got["z"].Int64() != 30 {
		t.Fatalf("merge into empty produced %v", got)
	}
}

func TestAttributesCovers(t *testing.T) {
	nan, negZero := Float(math.NaN()), Float(math.Copysign(0, -1))
	cases := []struct {
		name string
		a, b Attributes
		want bool
	}{
		{"empty b", Attributes{"x": Int(1)}, nil, true},
		{"subset", Attributes{"x": Int(1), "y": String("s")}, Attributes{"y": String("s")}, true},
		{"missing key", Attributes{"x": Int(1)}, Attributes{"y": Int(1)}, false},
		{"different value", Attributes{"x": Int(1)}, Attributes{"x": Int(2)}, false},
		{"int vs float", Attributes{"x": Int(1)}, Attributes{"x": Float(1)}, false},
		{"larger b", Attributes{"x": Int(1)}, Attributes{"x": Int(1), "y": Int(2)}, false},
		{"NaN covers itself", Attributes{"x": nan}, Attributes{"x": nan}, true},
		{"+0 covers +0", Attributes{"x": Float(0)}, Attributes{"x": Float(0)}, true},
		{"−0 does not cover +0", Attributes{"x": negZero}, Attributes{"x": Float(0)}, false},
		{"+0 does not cover −0", Attributes{"x": Float(0)}, Attributes{"x": negZero}, false},
	}
	for _, tc := range cases {
		if got := tc.a.Covers(tc.b); got != tc.want {
			t.Errorf("%s: %v.Covers(%v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAttributesStringDeterministic(t *testing.T) {
	a := Attributes{"b": Int(2), "a": Int(1)}
	want := "{a=1, b=2}"
	for i := 0; i < 10; i++ {
		if got := a.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	var empty Attributes
	if empty.String() != "{}" {
		t.Fatalf("empty attributes should render as {}")
	}
}

package graph_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// refValue is the 32-byte layout Value had before its kind moved into a tag
// string: the reference FuzzValue holds the 24-byte layout to.
type refValue struct {
	str  string
	bits uint64
	kind graph.Kind
}

// fuzzValue builds a Value and its reference from one of the constructors,
// chosen by c: the zero Value, String(s), Int, Float and Bool of w.
func fuzzValue(c uint8, s string, w uint64) (graph.Value, refValue) {
	switch c % 5 {
	case 1:
		return graph.String(s), refValue{kind: graph.KindString, str: s}
	case 2:
		return graph.Int(int64(w)), refValue{kind: graph.KindInt, bits: w}
	case 3:
		f := math.Float64frombits(w)
		return graph.Float(f), refValue{kind: graph.KindFloat, bits: math.Float64bits(f)}
	case 4:
		return graph.Bool(w&1 != 0), refValue{kind: graph.KindBool, bits: w & 1}
	default:
		return graph.Value{}, refValue{}
	}
}

func (v refValue) isNumeric() bool { return v.kind == graph.KindInt || v.kind == graph.KindFloat }

func (v refValue) float64() float64 {
	if v.kind == graph.KindInt {
		return float64(int64(v.bits))
	}
	return math.Float64frombits(v.bits)
}

func (v refValue) equal(o refValue) bool {
	if v.kind == o.kind {
		switch v.kind {
		case graph.KindString:
			return v.str == o.str
		case graph.KindInt, graph.KindBool:
			return v.bits == o.bits
		case graph.KindFloat:
			return v.float64() == o.float64()
		default:
			return true
		}
	}
	return v.isNumeric() && o.isNumeric() && v.float64() == o.float64()
}

func (v refValue) compare(o refValue) int {
	if v.isNumeric() && o.isNumeric() {
		a, b := v.float64(), o.float64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case graph.KindString:
		return strings.Compare(v.str, o.str)
	case graph.KindBool:
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

// FuzzValue holds the 24-byte Value to the 32-byte reference: ==, Equal and
// Compare agree with it on every pair, each accessor reads back what the
// constructor was given, and a value survives an edge's trip through
// wire.AppendEdge and (*wire.Interner).DecodeEdge, cached or not, as an ==
// value. The seeds include the texts a tag could be mistaken for.
func FuzzValue(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	texts := []string{"", "\x00", "\x00i", "\x00f", "\x00b", "\x00s", "\x00s\x00i", "x", "\x01"}
	words := []uint64{0, 1, 1 << 63, nan, nan | 1, math.Float64bits(math.Inf(-1)), math.Float64bits(3)}
	for i, s := range texts {
		for c := 0; c < 5; c++ {
			f.Add(uint8(c), s, words[i%len(words)], uint8(1), texts[(i+1)%len(texts)], words[(i+c)%len(words)])
		}
	}
	f.Add(uint8(3), "", nan, uint8(3), "", nan)
	f.Add(uint8(3), "", uint64(1)<<63, uint8(3), "", uint64(0))
	f.Add(uint8(2), "", uint64(1)<<63, uint8(3), "", math.Float64bits(math.MinInt64))
	f.Add(uint8(1), "", uint64(0), uint8(0), "", uint64(0))
	f.Add(uint8(1), "\x00i", uint64(0), uint8(2), "", uint64(0))

	f.Fuzz(func(t *testing.T, ca uint8, sa string, wa uint64, cb uint8, sb string, wb uint64) {
		a, ra := fuzzValue(ca, sa, wa)
		b, rb := fuzzValue(cb, sb, wb)
		if got, want := a == b, ra == rb; got != want {
			t.Errorf("%#v == %#v is %v, want %v", ra, rb, got, want)
		}
		if got, want := a.Equal(b), ra.equal(rb); got != want {
			t.Errorf("%#v.Equal(%#v) is %v, want %v", ra, rb, got, want)
		}
		if got, want := a.Compare(b), ra.compare(rb); got != want {
			t.Errorf("%#v.Compare(%#v) is %d, want %d", ra, rb, got, want)
		}
		for _, c := range []struct {
			v graph.Value
			r refValue
		}{{a, ra}, {b, rb}} {
			checkAccessors(t, c.v, c.r)
		}

		se := graph.StreamEdge{
			Edge:        graph.Edge{ID: 1, Source: 2, Target: 3, Type: "t", Attrs: graph.Attributes{"a": a, "b": b}},
			SourceAttrs: graph.Attributes{"v": a},
			TargetAttrs: graph.Attributes{"v": b},
		}
		payload := wire.AppendEdge(nil, se)
		in := wire.NewInterner()
		for pass := 0; pass < 2; pass++ { // a miss, then a hit where the block is cached
			got, err := in.DecodeEdge(payload)
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			for _, c := range []struct {
				got, sent graph.Attributes
				key       string
			}{
				{got.Edge.Attrs, se.Edge.Attrs, "a"}, {got.Edge.Attrs, se.Edge.Attrs, "b"},
				{got.SourceAttrs, se.SourceAttrs, "v"}, {got.TargetAttrs, se.TargetAttrs, "v"},
			} {
				v, ok := c.got[c.key]
				if sent := c.sent[c.key]; ok != sent.IsValid() || ok && v != sent {
					t.Errorf("pass %d: %q decoded as %#v (present %v), sent %v", pass, c.key, v, ok, sent)
				}
			}
		}
	})
}

// checkAccessors checks that each accessor of v reads what its reference
// holds.
func checkAccessors(t *testing.T, v graph.Value, r refValue) {
	t.Helper()
	if v.Kind() != r.kind || v.IsValid() != (r.kind != graph.KindInvalid) || v.IsNumeric() != r.isNumeric() {
		t.Errorf("%#v: Kind %v, IsValid %v, IsNumeric %v", r, v.Kind(), v.IsValid(), v.IsNumeric())
	}
	if v.Str() != r.str {
		t.Errorf("%#v: Str %q", r, v.Str())
	}
	var i int64
	var f float64
	switch r.kind {
	case graph.KindInt:
		i, f = int64(r.bits), float64(int64(r.bits))
	case graph.KindFloat:
		i, f = int64(math.Float64frombits(r.bits)), math.Float64frombits(r.bits)
	}
	if v.Int64() != i || math.Float64bits(v.Float64()) != math.Float64bits(f) {
		t.Errorf("%#v: Int64 %d, Float64 %v", r, v.Int64(), v.Float64())
	}
	if v.BoolVal() != (r.kind == graph.KindBool && r.bits != 0) {
		t.Errorf("%#v: BoolVal %v", r, v.BoolVal())
	}
	want := "<invalid>"
	switch r.kind {
	case graph.KindString:
		want = r.str
	case graph.KindInt:
		want = strconv.FormatInt(int64(r.bits), 10)
	case graph.KindFloat:
		want = strconv.FormatFloat(f, 'g', -1, 64)
	case graph.KindBool:
		want = strconv.FormatBool(r.bits != 0)
	}
	if v.String() != want {
		t.Errorf("%#v: String %q, want %q", r, v.String(), want)
	}
}

package obs

import (
	"reflect"
	"testing"
)

// TestTraceEventHoldsOnlyScalars: events are recorded inside ProcessEdge,
// where the slices in sight are scratch-backed and reused on the next call.
// A slice, map, pointer or interface field could alias that memory or force
// a copy on the hot path; scalars and strings copy by value.
func TestTraceEventHoldsOnlyScalars(t *testing.T) {
	typ := reflect.TypeOf(TraceEvent{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("TraceEvent.%s has type %s: trace events hold only scalars and strings", f.Name, f.Type)
		}
	}
}

// fakeClock is a deterministic Clock for tests.
type fakeClock struct{ ns int64 }

func (f *fakeClock) Now() int64 { return f.ns }

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(16, 10, 1000, &fakeClock{ns: 1})
	for id := uint64(0); id < 100; id++ {
		want := id%10 == 0
		if got := tr.SampleEdge(id); got != want {
			t.Fatalf("SampleEdge(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestTracerRingWraps(t *testing.T) {
	clk := &fakeClock{ns: 1}
	tr := NewTracer(4, 1, 1000, clk)
	for i := 0; i < 10; i++ {
		tr.Record(TraceEvent{Stage: StageProcess, EdgeID: uint64(i)})
	}
	ev := tr.Dump()
	if len(ev) != 4 {
		t.Fatalf("Dump len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.EdgeID != uint64(6+i) {
			t.Fatalf("Dump[%d].EdgeID = %d, want %d (oldest-first)", i, e.EdgeID, 6+i)
		}
		if e.Seq != uint64(7+i) {
			t.Fatalf("Dump[%d].Seq = %d", i, e.Seq)
		}
		if e.WallNS != 1 {
			t.Fatalf("WallNS not stamped from clock: %+v", e)
		}
	}
	rec, dropped := tr.Stats()
	if rec != 10 || dropped != 0 {
		t.Fatalf("Stats = (%d, %d)", rec, dropped)
	}
}

func TestTracerPerSecondCap(t *testing.T) {
	clk := &fakeClock{ns: 0}
	tr := NewTracer(100, 1, 3, clk)
	for i := 0; i < 10; i++ {
		tr.Record(TraceEvent{Stage: StageIngest})
	}
	if rec, dropped := tr.Stats(); rec != 3 || dropped != 7 {
		t.Fatalf("within one second: recorded=%d dropped=%d, want 3/7", rec, dropped)
	}
	clk.ns = 2_000_000_000 // next wall second: budget resets
	for i := 0; i < 2; i++ {
		tr.Record(TraceEvent{Stage: StageIngest})
	}
	if rec, dropped := tr.Stats(); rec != 5 || dropped != 7 {
		t.Fatalf("after second rollover: recorded=%d dropped=%d, want 5/7", rec, dropped)
	}
}

func TestTracerDisabledConstruction(t *testing.T) {
	if tr := NewTracer(0, 1, 0, nil); tr.Enabled() {
		t.Fatalf("zero capacity must disable the tracer")
	}
	if tr := NewTracer(8, 0, 0, nil); tr.Enabled() {
		t.Fatalf("zero sampling must disable the tracer")
	}
	tr := NewTracer(8, 1, 0, nil)
	if !tr.Enabled() || tr.perSec != 1000 {
		t.Fatalf("defaults not applied: %+v", tr)
	}
}

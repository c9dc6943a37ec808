// Package graph implements the dynamic multi-relational property graph that
// StreamWorks continuously searches. Vertices and edges carry a type label
// and a set of attributes; every edge additionally carries a timestamp.
//
// A Dynamic graph maintains a sliding time window over an edge stream,
// expiring edges that fall outside the window as required by the paper's
// temporal query semantics (τ(g) < tW). It is the only writer of its Graph,
// which local search, offline ground-truth search and the planner's
// statistics read. The graph keeps each edge as a 48-B record that names its
// endpoints by vertex handle and its type by an index into a table of the
// window's types, and links it into its endpoints' incidence lists and, in
// timestamp order, into the Dynamic's expiry queue; each vertex is a 40-B
// record holding the ends of its lists. Readers get Edge and Vertex values
// built from the records (graph.go).
package graph

import (
	"fmt"
	"time"
)

// VertexID identifies a vertex of the data graph. IDs are assigned by the
// data source (generators, loaders) and are stable for the lifetime of the
// stream.
type VertexID uint64

// EdgeID identifies an edge of the data graph. Edge IDs are unique across
// the whole stream, which makes them usable as tie-breakers and as members
// of match signatures.
type EdgeID uint64

// Timestamp is the time associated with an edge, expressed in nanoseconds
// since the Unix epoch. Synthetic workloads are free to use small integers;
// only differences and ordering matter to the engine.
type Timestamp int64

// TimestampFromTime converts a time.Time into a Timestamp.
func TimestampFromTime(t time.Time) Timestamp { return Timestamp(t.UnixNano()) }

// Time converts the timestamp back into a time.Time.
func (t Timestamp) Time() time.Time { return time.Unix(0, int64(t)) }

// Add returns the timestamp shifted by d.
func (t Timestamp) Add(d time.Duration) Timestamp { return t + Timestamp(d) }

// Sub returns the duration t-o.
func (t Timestamp) Sub(o Timestamp) time.Duration { return time.Duration(t - o) }

// Vertex is a typed, attributed node of the data graph.
type Vertex struct {
	ID    VertexID
	Type  string
	Attrs Attributes
}

// String renders the vertex for debugging.
func (v *Vertex) String() string {
	if v == nil {
		return "<nil vertex>"
	}
	if len(v.Attrs) == 0 {
		return fmt.Sprintf("v%d:%s", v.ID, v.Type)
	}
	return fmt.Sprintf("v%d:%s%s", v.ID, v.Type, v.Attrs)
}

// Edge is a directed, typed, timestamped, attributed edge of the data graph.
// Multiple edges may connect the same pair of vertices (multigraph), possibly
// with the same type but different timestamps; they are distinguished by ID.
type Edge struct {
	ID        EdgeID
	Source    VertexID
	Target    VertexID
	Type      string
	Timestamp Timestamp
	Attrs     Attributes
}

// String renders the edge for debugging.
func (e *Edge) String() string {
	if e == nil {
		return "<nil edge>"
	}
	return fmt.Sprintf("e%d: v%d -[%s @%d]-> v%d", e.ID, e.Source, e.Type, e.Timestamp, e.Target)
}

// StreamEdge is the unit of arrival on a dynamic graph stream: an edge
// together with (optionally sparse) descriptions of its endpoints. Sources
// only need to populate endpoint types/attributes the first time a vertex is
// seen; subsequent arrivals may leave them empty.
type StreamEdge struct {
	Edge        Edge
	SourceType  string
	TargetType  string
	SourceAttrs Attributes
	TargetAttrs Attributes

	// ArrivedWallNS is the wall-clock nanosecond at which this edge reached
	// the serving tier, stamped by the ingest path only when observability is
	// enabled (zero otherwise). It rides the envelope so a match completed by
	// this edge can report its full arrival-to-delivery journey; it is
	// process-local plumbing, never part of the wire format or of edge
	// identity, and never influences matching.
	ArrivedWallNS int64
}

// String renders the stream edge for debugging.
func (s StreamEdge) String() string {
	return fmt.Sprintf("%s (src:%s dst:%s)", s.Edge.String(), s.SourceType, s.TargetType)
}

// Interval is a closed time interval [Start, End]. The paper defines
// τ(g) for a subgraph g as the interval between its earliest and latest
// edge; a match is reported only when τ(g) < tW.
type Interval struct {
	Start Timestamp
	End   Timestamp
}

// NewInterval returns the interval covering exactly t.
func NewInterval(t Timestamp) Interval { return Interval{Start: t, End: t} }

// Span returns the length of the interval.
func (iv Interval) Span() time.Duration { return iv.End.Sub(iv.Start) }

// Extend returns the smallest interval covering iv and t.
func (iv Interval) Extend(t Timestamp) Interval {
	out := iv
	if t < out.Start {
		out.Start = t
	}
	if t > out.End {
		out.End = t
	}
	return out
}

// Union returns the smallest interval covering both iv and o.
func (iv Interval) Union(o Interval) Interval {
	out := iv
	if o.Start < out.Start {
		out.Start = o.Start
	}
	if o.End > out.End {
		out.End = o.End
	}
	return out
}

// Within reports whether the interval's span is strictly less than w, the
// admission test the paper applies to candidate matches.
func (iv Interval) Within(w time.Duration) bool { return iv.Span() < w }

// Contains reports whether t lies inside the closed interval.
func (iv Interval) Contains(t Timestamp) bool { return t >= iv.Start && t <= iv.End }

// String renders the interval for debugging.
func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d]", iv.Start, iv.End)
}

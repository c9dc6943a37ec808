package query

import (
	"fmt"
	"strings"

	"github.com/streamworks/streamworks/internal/graph"
)

// Format renders q in the text DSL accepted by Parse, one directive per
// line. Vertices and edges are emitted in ID order, so re-parsing the output
// assigns the same vertex and edge IDs and match signatures stay comparable
// across the round trip: Parse(Format(q)) is structurally identical to q.
//
// The rendering assumes DSL-representable names and values: vertex names,
// type labels and attribute names must not contain whitespace or start a
// quote, and string values must not contain double quotes. Everything
// produced by Builder-based query constructors in this repository satisfies
// that. So does every query Parse accepts, since it refuses a quote that
// does not enclose a whole token, though not trivially: FuzzFormatRoundTrip
// holds the pair to the round trip.
func Format(q *Graph) string {
	var sb strings.Builder
	if q.Name() != "" {
		fmt.Fprintf(&sb, "query %s\n", q.Name())
	}
	if q.Window() > 0 {
		fmt.Fprintf(&sb, "window %s\n", q.Window())
	}
	for _, v := range q.Vertices() {
		sb.WriteString("vertex ")
		sb.WriteString(v.Name)
		if v.Type != "" {
			sb.WriteString(" : ")
			sb.WriteString(v.Type)
		}
		writePreds(&sb, v.Preds)
		sb.WriteByte('\n')
	}
	for _, e := range q.Edges() {
		fmt.Fprintf(&sb, "edge %s %s %s",
			q.Vertex(e.Source).Name, formatArrow(e), q.Vertex(e.Target).Name)
		writePreds(&sb, e.Preds)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// formatArrow renders the four arrow shapes understood by parseArrow.
func formatArrow(e Edge) string {
	switch {
	case e.Type == "" && e.AnyDirection:
		return "--"
	case e.Type == "":
		return "-->"
	case e.AnyDirection:
		return fmt.Sprintf("-[%s]-", e.Type)
	default:
		return fmt.Sprintf("-[%s]->", e.Type)
	}
}

func writePreds(sb *strings.Builder, preds []Predicate) {
	for i, p := range preds {
		if i == 0 {
			sb.WriteString(" where ")
		} else {
			sb.WriteString(" and ")
		}
		if p.Op == OpExists {
			fmt.Fprintf(sb, "%s exists", p.Attr)
			continue
		}
		fmt.Fprintf(sb, "%s %s %s", p.Attr, p.Op, formatValue(p.Value))
	}
}

// formatValue renders a predicate value so parseDSLValue reconstructs the
// same kind: strings are quoted (protecting embedded spaces and keeping
// numeric-looking text a string); numbers and booleans round-trip through
// graph.ParseValue's inference.
func formatValue(v graph.Value) string {
	if v.Kind() == graph.KindString {
		return `"` + v.Str() + `"`
	}
	return v.String()
}

package query

import (
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

const smurfDSL = `
# Smurf DDoS detection query
query smurf
window 10m
vertex attacker : Host
vertex amplifier : Host
vertex victim : Host where role = "server"
edge attacker -[icmp_echo_req]-> amplifier
edge amplifier -[icmp_echo_reply]-> victim where bytes > 500
`

func TestParseSmurf(t *testing.T) {
	q, err := ParseString(smurfDSL)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if q.Name() != "smurf" {
		t.Fatalf("Name = %q", q.Name())
	}
	if q.Window() != 10*time.Minute {
		t.Fatalf("Window = %v", q.Window())
	}
	if q.NumVertices() != 3 || q.NumEdges() != 2 {
		t.Fatalf("sizes: %d vertices %d edges", q.NumVertices(), q.NumEdges())
	}
	victim, ok := q.VertexByName("victim")
	if !ok || len(victim.Preds) != 1 {
		t.Fatalf("victim predicates missing: %+v", victim)
	}
	if victim.Preds[0].Attr != "role" || victim.Preds[0].Op != OpEq || victim.Preds[0].Value.Str() != "server" {
		t.Fatalf("victim predicate wrong: %v", victim.Preds[0])
	}
	e := q.Edge(1)
	if e.Type != "icmp_echo_reply" || len(e.Preds) != 1 || e.Preds[0].Value.Int64() != 500 {
		t.Fatalf("edge 1 wrong: %+v", e)
	}
}

func TestParseCompactVertexType(t *testing.T) {
	q, err := ParseString(`
vertex a:Article
vertex k:Keyword
edge a -[mentions]-> k
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	a, _ := q.VertexByName("a")
	if a.Type != "Article" {
		t.Fatalf("compact type not parsed: %+v", a)
	}
}

func TestParseUndirectedAndUntypedEdges(t *testing.T) {
	q, err := ParseString(`
vertex a
vertex b
vertex c
edge a --> b
edge b -[peer]- c
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	e0 := q.Edge(0)
	if e0.Type != "" || e0.AnyDirection {
		t.Fatalf("edge 0 should be directed any-type: %+v", e0)
	}
	e1 := q.Edge(1)
	if e1.Type != "peer" || !e1.AnyDirection {
		t.Fatalf("edge 1 should be undirected peer: %+v", e1)
	}
}

func TestParsePredicateConjunctionAndQuotes(t *testing.T) {
	q, err := ParseString(`
vertex m : Machine where os = "Windows 7" and patched = false
vertex u : User
edge u -[login]-> m where failures >= 3
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	m, _ := q.VertexByName("m")
	if len(m.Preds) != 2 {
		t.Fatalf("expected 2 predicates, got %v", m.Preds)
	}
	if m.Preds[0].Value.Str() != "Windows 7" {
		t.Fatalf("quoted string with space mangled: %q", m.Preds[0].Value.Str())
	}
	if m.Preds[1].Value.Kind() != graph.KindBool {
		t.Fatalf("boolean literal not typed: %v", m.Preds[1].Value)
	}
	e := q.Edge(0)
	if e.Preds[0].Op != OpGe {
		t.Fatalf(">= not parsed: %v", e.Preds[0])
	}
}

func TestParseExistsPredicate(t *testing.T) {
	q, err := ParseString(`
vertex a : Article where location exists
vertex k : Keyword
edge a -[mentions]-> k
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	a, _ := q.VertexByName("a")
	if len(a.Preds) != 1 || a.Preds[0].Op != OpExists {
		t.Fatalf("exists predicate not parsed: %+v", a.Preds)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		dsl  string
		frag string
	}{
		{"unknown directive", "frobnicate x", "unknown directive"},
		{"bad window", "window banana", "bad window duration"},
		{"window missing arg", "window", "expected: window"},
		{"query missing arg", "query", "expected: query"},
		{"vertex missing name", "vertex", "expected: vertex"},
		{"edge too short", "edge a ->", "expected: edge"},
		{"bad arrow", "vertex a\nvertex b\nedge a =[x]=> b", "bad edge arrow"},
		{"bad predicate op", "vertex a\nvertex b\nedge a --> b where x << 3", "unknown operator"},
		{"incomplete predicate", "vertex a\nvertex b\nedge a --> b where x >", "incomplete predicate"},
		{"unexpected token", "vertex a : T bogus", "unexpected token"},
		{"edge unknown vertex", "vertex a\nedge a --> ghost", "unknown vertex"},
		{"empty query", "# nothing here", "no edges"},
		{"disconnected", "vertex a\nvertex b\nvertex c\nvertex d\nedge a --> b\nedge c --> d", "not connected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.dsl)
			if err == nil {
				t.Fatalf("expected an error")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestParseErrorReportsLine(t *testing.T) {
	_, err := ParseString("query ok\nwindow 5m\nbogus line here")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("expected *ParseError, got %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("Line = %d, want 3", pe.Line)
	}
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParse should panic")
		}
	}()
	MustParse("garbage")
}

func TestParseRoundTripThroughString(t *testing.T) {
	q := MustParse(smurfDSL)
	// Graph.String is DSL-like but not exactly the DSL; just ensure it
	// mentions every vertex name and edge type.
	s := q.String()
	for _, want := range []string{"attacker", "amplifier", "victim", "icmp_echo_req", "icmp_echo_reply"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTokenize(t *testing.T) {
	toks, err := tokenize(`edge a -[x]-> b where name = "two words" and n > 3`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"edge", "a", "-[x]->", "b", "where", "name", "=", `"two words"`, "and", "n", ">", "3"}
	if len(toks) != len(want) {
		t.Fatalf("tokenize = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

// TestParseRefusesStrayQuotes: a '"' that is never closed, or that does not
// enclose a whole token, is a parse error naming its line, not part of a
// value Format would render as DSL that does not parse.
func TestParseRefusesStrayQuotes(t *testing.T) {
	for _, c := range []struct{ dsl, frag string }{
		{"vertex a where label = \"new york\nvertex b\nedge a --> b", "unterminated"},
		{"vertex a\nvertex b where \"role = x\nedge a --> b", "unterminated"},
		{"vertex a\nvertex b\nedge a --> b where name = \"x\" and note = \"y", "unterminated"},
		{"vertex a where label = a\"b c\"\nvertex b\nedge a --> b", "inside"},
		{"vertex a\nvertex b where label = \"b\"c\nedge a --> b", "after the closing quote"},
	} {
		_, err := ParseString(c.dsl)
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("%q: got %v (%T), want a *ParseError", c.dsl, err, err)
		}
		want := 1 + strings.Count(c.dsl[:strings.LastIndex(c.dsl, `"`)], "\n")
		if pe.Line != want || !strings.Contains(pe.Msg, c.frag) {
			t.Fatalf("%q: got %v, want a %q error on line %d", c.dsl, pe, c.frag, want)
		}
	}
}

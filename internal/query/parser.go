package query

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// ParseError describes a syntax or semantic error in the query DSL, with the
// 1-based line number at which it occurred.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("query: line %d: %s", e.Line, e.Msg) }

// Parse reads a query description in the StreamWorks text DSL and returns
// the query graph. The DSL is line oriented:
//
//	# Smurf DDoS: an attacker triggers many amplifiers to flood a victim.
//	query smurf
//	window 10m
//	vertex attacker : Host
//	vertex amplifier : Host
//	vertex victim : Host where role = "server"
//	edge attacker -[icmp_echo_req]-> amplifier
//	edge amplifier -[icmp_echo_reply]-> victim where bytes > 500
//
// Lines starting with '#' and blank lines are ignored. The `query` line is
// optional (an empty name is used when absent); `window` is optional, and
// without it the engine's retention is the window. Vertex type is optional
// (`vertex x` matches any type). An edge written with `-[type]-` (no arrow
// head) matches either direction; `-[]->` or `-->` matches any edge type.
func Parse(r io.Reader) (*Graph, error) {
	p := &parser{b: NewBuilder("")}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if err := p.parseLine(line, sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("query: reading input: %w", err)
	}
	q, err := p.b.Build()
	if err != nil {
		return nil, &ParseError{Line: line, Msg: err.Error()}
	}
	return q, nil
}

// ParseString is a convenience wrapper around Parse for in-memory queries.
func ParseString(s string) (*Graph, error) { return Parse(strings.NewReader(s)) }

// MustParse parses a statically known-good query and panics on error.
func MustParse(s string) *Graph {
	q, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	b *Builder
}

func (p *parser) parseLine(line int, raw string) error {
	text := strings.TrimSpace(raw)
	if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "//") {
		return nil
	}
	fields, err := tokenize(text)
	if err != nil {
		return &ParseError{Line: line, Msg: err.Error()}
	}
	if len(fields) == 0 {
		return nil
	}
	switch strings.ToLower(fields[0]) {
	case "query":
		if len(fields) != 2 {
			return &ParseError{Line: line, Msg: "expected: query <name>"}
		}
		p.b.name = fields[1]
		return nil
	case "window":
		if len(fields) != 2 {
			return &ParseError{Line: line, Msg: "expected: window <duration>"}
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return &ParseError{Line: line, Msg: fmt.Sprintf("bad window duration %q: %v", fields[1], err)}
		}
		p.b.Window(d)
		if p.b.err != nil {
			return &ParseError{Line: line, Msg: p.b.err.Error()}
		}
		return nil
	case "vertex":
		return p.parseVertex(line, fields[1:])
	case "edge":
		return p.parseEdge(line, fields[1:])
	default:
		return &ParseError{Line: line, Msg: fmt.Sprintf("unknown directive %q", fields[0])}
	}
}

// parseVertex handles: <name> [: <Type>] [where <predicates>]
func (p *parser) parseVertex(line int, fields []string) error {
	if len(fields) == 0 {
		return &ParseError{Line: line, Msg: "expected: vertex <name> [: <type>] [where ...]"}
	}
	name := fields[0]
	rest := fields[1:]
	typ := ""
	if len(rest) > 0 && rest[0] == ":" {
		if len(rest) < 2 {
			return &ParseError{Line: line, Msg: "expected a type after ':'"}
		}
		typ = rest[1]
		rest = rest[2:]
	} else if strings.Contains(name, ":") {
		parts := strings.SplitN(name, ":", 2)
		name, typ = parts[0], parts[1]
	}
	preds, err := parsePredicates(line, rest)
	if err != nil {
		return err
	}
	p.b.Vertex(name, typ, preds...)
	if p.b.err != nil {
		return &ParseError{Line: line, Msg: p.b.err.Error()}
	}
	return nil
}

// parseEdge handles: <src> -[<type>]-> <dst> [where ...] plus the
// arrow-only forms "-->" (any type, directed) and "-[t]-" (undirected).
func (p *parser) parseEdge(line int, fields []string) error {
	if len(fields) < 3 {
		return &ParseError{Line: line, Msg: "expected: edge <src> -[type]-> <dst> [where ...]"}
	}
	src, arrow, dst := fields[0], fields[1], fields[2]
	typ, anyDir, err := parseArrow(arrow)
	if err != nil {
		return &ParseError{Line: line, Msg: err.Error()}
	}
	preds, perr := parsePredicates(line, fields[3:])
	if perr != nil {
		return perr
	}
	if anyDir {
		p.b.UndirectedEdge(src, dst, typ, preds...)
	} else {
		p.b.Edge(src, dst, typ, preds...)
	}
	if p.b.err != nil {
		return &ParseError{Line: line, Msg: p.b.err.Error()}
	}
	return nil
}

// parseArrow decodes "-[type]->", "-[type]-", "-->" and "--".
func parseArrow(s string) (typ string, anyDir bool, err error) {
	switch s {
	case "-->", "->":
		return "", false, nil
	case "--":
		return "", true, nil
	}
	if strings.HasPrefix(s, "-[") {
		body := s[2:]
		switch {
		case strings.HasSuffix(body, "]->"):
			return body[:len(body)-3], false, nil
		case strings.HasSuffix(body, "]-"):
			return body[:len(body)-2], true, nil
		}
	}
	return "", false, fmt.Errorf("bad edge arrow %q (want -[type]-> or -[type]- or -->)", s)
}

// parsePredicates handles: where <attr> <op> <value> [and <attr> <op> <value>]...
// and the unary form: where <attr> exists.
func parsePredicates(line int, fields []string) ([]Predicate, error) {
	if len(fields) == 0 {
		return nil, nil
	}
	if strings.ToLower(fields[0]) != "where" {
		return nil, &ParseError{Line: line, Msg: fmt.Sprintf("unexpected token %q (want 'where')", fields[0])}
	}
	rest := fields[1:]
	var preds []Predicate
	for len(rest) > 0 {
		if strings.ToLower(rest[0]) == "and" {
			rest = rest[1:]
			continue
		}
		if len(rest) >= 2 && strings.ToLower(rest[1]) == "exists" {
			preds = append(preds, Exists(rest[0]))
			rest = rest[2:]
			continue
		}
		if len(rest) < 3 {
			return nil, &ParseError{Line: line, Msg: "incomplete predicate (want <attr> <op> <value>)"}
		}
		op, err := ParseOp(rest[1])
		if err != nil {
			return nil, &ParseError{Line: line, Msg: err.Error()}
		}
		preds = append(preds, Predicate{Attr: rest[0], Op: op, Value: parseDSLValue(rest[2])})
		rest = rest[3:]
	}
	return preds, nil
}

// parseDSLValue strips optional quotes; quoted literals are always strings,
// unquoted literals go through graph.ParseValue type inference.
func parseDSLValue(tok string) graph.Value {
	if len(tok) >= 2 && tok[0] == '"' && tok[len(tok)-1] == '"' {
		return graph.String(tok[1 : len(tok)-1])
	}
	return graph.ParseValue(tok)
}

// tokenize splits a line on whitespace while keeping double-quoted strings
// (which may contain spaces) as single tokens, quotes included. A quote
// opens only a token and closes only at its end, so a quoted string is a
// whole token, as Format writes one; anything else is an error.
func tokenize(s string) ([]string, error) {
	var fields []string
	for s = strings.TrimLeft(s, " \t"); s != ""; s = strings.TrimLeft(s, " \t") {
		end := strings.IndexAny(s, " \t")
		if s[0] == '"' {
			n := strings.IndexByte(s[1:], '"')
			if n < 0 {
				return nil, errors.New(`unterminated string (a '"' is never closed)`)
			}
			if end = n + 2; end < len(s) && s[end] != ' ' && s[end] != '\t' {
				return nil, fmt.Errorf("text after the closing quote of %s", s[:end])
			}
		} else {
			if end < 0 {
				end = len(s)
			}
			if strings.Contains(s[:end], `"`) {
				return nil, fmt.Errorf(`a '"' inside %s (quote a whole value)`, s[:end])
			}
		}
		fields = append(fields, s[:end])
		s = s[end:]
	}
	return fields, nil
}

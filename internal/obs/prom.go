package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text-format (version 0.0.4) exposition for registry snapshots,
// written by hand so the repo stays dependency-free. Metric families are
// prefixed "streamworks_"; histogram values are exposed in seconds (the
// Prometheus convention) while the JSON side stays in nanoseconds.

// PromPrefix is prepended to every exposed metric family name.
const PromPrefix = "streamworks_"

// PromWriter accumulates Prometheus text-format output. Errors are sticky:
// check Err once after the last write.
type PromWriter struct {
	w     io.Writer
	err   error
	typed map[string]bool
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the # TYPE line once per family.
func (p *PromWriter) header(family, typ, help string) {
	if p.typed[family] {
		return
	}
	p.typed[family] = true
	if help != "" {
		p.printf("# HELP %s %s\n", family, help)
	}
	p.printf("# TYPE %s %s\n", family, typ)
}

// sanitize maps an internal metric name to a legal Prometheus name.
func sanitize(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// label renders one key="value" pair, the value escaped per the text-format
// rules (backslash, newline and double quote; nothing else).
func label(key, value string) string {
	value = strings.ReplaceAll(value, `\`, `\\`)
	value = strings.ReplaceAll(value, "\n", `\n`)
	value = strings.ReplaceAll(value, `"`, `\"`)
	return sanitize(key) + `="` + value + `"`
}

func labelSuffix(key, value string) string {
	if key == "" {
		return ""
	}
	return "{" + label(key, value) + "}"
}

func labelWith(key, value, extraKey, extraValue string) string {
	parts := make([]string, 0, 2)
	if key != "" {
		parts = append(parts, label(key, value))
	}
	parts = append(parts, label(extraKey, extraValue))
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Gauge emits one gauge sample. Pass empty key/value for an unlabelled
// series.
func (p *PromWriter) Gauge(name, labelKey, labelValue string, v float64) {
	family := PromPrefix + sanitize(name)
	p.header(family, "gauge", "")
	p.printf("%s%s %s\n", family, labelSuffix(labelKey, labelValue), formatFloat(v))
}

// Counter emits one counter sample; the family gets the conventional _total
// suffix.
func (p *PromWriter) Counter(name, labelKey, labelValue string, v float64) {
	family := PromPrefix + sanitize(name) + "_total"
	p.header(family, "counter", "")
	p.printf("%s%s %s\n", family, labelSuffix(labelKey, labelValue), formatFloat(v))
}

// Histogram emits one histogram series (cumulative buckets in seconds, sum,
// count) from a snapshot.
func (p *PromWriter) Histogram(hs HistogramSnapshot) {
	family := PromPrefix + sanitize(hs.Name) + "_seconds"
	p.header(family, "histogram", "")
	// Emit buckets only up to the highest populated one; cumulative counts
	// stay valid and the +Inf bucket always closes the series.
	last := -1
	for i, b := range hs.Buckets {
		if b > 0 {
			last = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= last; i++ {
		cum += hs.Buckets[i]
		le := formatFloat(float64(BucketUpperBound(i)) / 1e9)
		p.printf("%s_bucket%s %d\n", family, labelWith(hs.LabelKey, hs.LabelValue, "le", le), cum)
	}
	p.printf("%s_bucket%s %d\n", family, labelWith(hs.LabelKey, hs.LabelValue, "le", "+Inf"), hs.Count)
	p.printf("%s_sum%s %s\n", family, labelSuffix(hs.LabelKey, hs.LabelValue), formatFloat(float64(hs.Sum)/1e9))
	p.printf("%s_count%s %d\n", family, labelSuffix(hs.LabelKey, hs.LabelValue), hs.Count)
}

// Snapshot emits every counter, gauge and histogram in the snapshot.
func (p *PromWriter) Snapshot(s Snapshot) {
	for _, c := range s.Counters {
		p.Counter(c.Name, c.LabelKey, c.LabelValue, float64(c.Value))
	}
	for _, g := range s.Gauges {
		p.Gauge(g.Name, g.LabelKey, g.LabelValue, float64(g.Value))
	}
	for _, h := range s.Histograms {
		p.Histogram(h)
	}
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64

	// labelString preserves the original label text for Series.
	labelString string
}

// Series renders the sample's identity as name{k="v",...} with the labels
// exactly as they appeared in the input.
func (s PromSample) Series() string {
	if s.labelString == "" {
		return s.Name
	}
	return s.Name + "{" + s.labelString + "}"
}

// ParseProm validates Prometheus text-format input and returns its samples.
// It is deliberately small — enough to let CI prove a scrape of /metrics is
// well-formed without importing a client library: comment and empty lines
// are skipped, every other line must be `name[{labels}] value [timestamp]`
// with a legal metric name, parseable labels and a parseable float value.
func ParseProm(r io.Reader) ([]PromSample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []PromSample
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom parse: line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePromLine(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	// Metric name.
	i := 0
	for i < len(rest) && isNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("missing metric name in %q", line)
	}
	s.Name, rest = rest[:i], rest[i:]
	s.labelString = ""
	// Optional label block.
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		s.labelString = rest[1:end]
		if err := parseLabels(s.labelString, s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value [timestamp] after %q", s.Name)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parsePromValue(f string) (float64, error) {
	switch f {
	case "+Inf", "Inf":
		return 0, fmt.Errorf("bare Inf sample value")
	case "NaN":
		return 0, nil
	}
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", f)
	}
	return v, nil
}

func parseLabels(block string, into map[string]string) error {
	rest := block
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return fmt.Errorf("bad label pair %q", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if name == "" || !isName(name) {
			return fmt.Errorf("bad label name %q", name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("label %s value not quoted", name)
		}
		// Scan the quoted value honoring escapes.
		i := 1
		var val strings.Builder
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value for %s", name)
		}
		into[name] = val.String()
		rest = rest[i+1:]
		rest = strings.TrimPrefix(rest, ",")
		rest = strings.TrimSpace(rest)
	}
	return nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func isName(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return s != ""
}
